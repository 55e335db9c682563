#!/usr/bin/env python3
"""End-to-end benchmark of viewcapd.

Builds viewcap from the checkout, generates a workload's inputs from the
seed, drives a real `viewcapd` process over stdio with one closed-loop
client (one request in flight), checks every reply with the independent
checker and prints one JSON result line:

  python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 25 --trace 0

--trace 1 replays the same inputs in process under perfbench_trace and
reports the per-layer metrics instead. See perfbench/README.md.
"""

import argparse
import collections
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
INDEX_LEAVES = 2        # --build-leaves of the serve_mixed index
PROBE_ROUNDS = 4        # fresh daemons that replay serve_warm's and serve_cold's write probe
MIN_REQUESTS = 1000     # distinct timed requests, so ten lie beyond the p99
WRITE_METHODS = ("load", "nonredundant", "simplify", "lint")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds the daemon, the CLI and the traced
    driver; a no-op rebuild on later runs."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        die("the viewcap sources are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    with open(os.path.join(OUT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                      "--target", "viewcapd", "viewcap_cli", "perfbench_trace"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(step))
    tools = os.path.join(BUILD, "viewcap", "tools")
    return {"daemon": os.path.join(tools, "viewcapd"),
            "cli": os.path.join(tools, "viewcap_cli"),
            "trace": os.path.join(BUILD, "perfbench_trace")}


def encode(item, rid):
    return (json.dumps({"id": rid, "method": item["method"], "params": item["params"]})
            + "\n").encode()


class Client:
    """One closed-loop stdio session: a request goes out only after the
    previous reply came back."""

    def __init__(self, argv):
        self.sent = 0
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def ask(self, line):
        """Returns (reply bytes, round trip in seconds)."""
        t = time.perf_counter()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        dt = time.perf_counter() - t
        self.sent += 1
        if not reply:
            raise RuntimeError("viewcapd closed its output")
        return reply, dt

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self):
        try:
            self.proc.stdin.close()
        finally:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values))) - 1))
    return sorted_values[k]


class Rounds:
    """Round trips of a request list replayed in rounds: the same
    requests every round, in the same or a fresh order. A request's
    typical round trip is the fastest of its samples. On a shared host
    whole seconds run 20-60% slow because of other tenants (README,
    "Steadiness"); a request's slower samples measure the neighbours, so
    they are set aside request by request. Every request is still sent,
    checked and counted in `attempted`."""

    def __init__(self):
        self.samples = {}  # (id(item), occurrence in its round) -> seconds
        self.items = {}

    def replay(self, session, items):
        seen = collections.Counter()
        for item in items:
            key = (id(item), seen[id(item)])
            seen[id(item)] += 1
            self.samples.setdefault(key, []).append(session.ask(item))
            self.items[key] = item

    def typical(self, methods=None):
        """[(method, typical seconds)] of every request (of `methods`)."""
        return [(self.items[k]["method"], min(v)) for k, v in self.samples.items()
                if methods is None or self.items[k]["method"] in methods]


def summarize(timed, writes):
    """End-to-end figures of the typical round trips. Write latency is
    one median per write method, combined by geometric mean, because the
    methods differ 50-fold in cost and a median over all writes would
    jump between methods."""
    latencies = sorted(t for _, t in timed.typical())
    by_method = {}
    for method, t in writes.typical(WRITE_METHODS):
        by_method.setdefault(method, []).append(t)
    return {
        "throughput_rps": (len(latencies) / math.fsum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": (quantile(latencies, 0.99) * 1e3, "ms"),
        "write_p50_ms": (math.exp(statistics.fmean(
            math.log(statistics.median(v) * 1e3) for v in by_method.values())), "ms"),
    }


def passes(wl):
    """serve_warm's timed requests: the working set, replayed in a fresh
    seeded order per pass."""
    while True:
        order = list(wl.stream)
        wl.rng.shuffle(order)
        yield order


def stream_order(wl):
    for order in passes(wl):
        yield from order


class Session:
    """A daemon plus the request log the checker reads afterwards."""

    def __init__(self, argv, log):
        self.client = Client(argv)
        self.log = log
        self.client.ask(b'{"id": 0, "method": "ping"}\n')
        self.setup_s = time.perf_counter() - self.client.start

    def ask(self, item):
        reply, dt = self.client.ask(encode(item, self.client.sent))
        self.log.append((item, reply))
        return dt

    def stats(self):
        reply, _ = self.client.ask(encode({"method": "stats", "params": {}},
                                          self.client.sent))
        return json.loads(reply)["result"]

    def close(self, problems):
        """Checks the daemon's own request count against the client's,
        then shuts it down."""
        try:
            counted = self.stats().get("requests")
            if counted != self.client.sent:
                problems.append(f"daemon counted {counted} requests, "
                                f"client sent {self.client.sent}")
        finally:
            self.client.close()


def run_daemon(wl, tools, work, seconds):
    """The timed phase replays the workload's stream in rounds: passes in
    a fresh order over serve_warm's working set on one warm daemon, and
    for the other workloads the same round on a fresh daemon each time,
    so every round starts from the same cold state (its set-up untimed).
    At least one round runs, and rounds run whole, so a run may end up to
    one round after `seconds`."""
    catalog = os.path.join(work, "catalog.vcp")
    with open(catalog, "w") as f:
        f.write(wl.catalog)
    argv = [tools["daemon"], f"--program={catalog}", f"--threads={wl.threads}"]
    if wl.index:
        index = os.path.join(work, "catalog.vcidx")
        subprocess.run([tools["cli"], "index", "build", catalog, index,
                        f"--build-leaves={INDEX_LEAVES}", "--threads=2"],
                       check=True, stdout=subprocess.DEVNULL)
        argv.append(f"--index={index}")

    log, problems, rss = [], [], []
    timed, probe = Rounds(), Rounds()

    def fresh_round(rounds, items):
        session = Session(argv, log)
        try:
            rounds.replay(session, items)
            return session.client.peak_rss_mb()
        finally:
            session.close(problems)

    session = Session(argv, log)
    setup_s = session.setup_s
    try:
        for item in wl.warmup:
            session.ask(item)
        before = session.stats()["engine_stats"]
        deadline = time.perf_counter() + seconds
        order = passes(wl)
        while not wl.fresh and (not timed.samples or time.perf_counter() < deadline):
            timed.replay(session, next(order))
        rss.append(session.client.peak_rss_mb())
        after = session.stats()["engine_stats"]
    finally:
        session.close(problems)
    if not wl.fresh:
        for cache in ("verdict", "dominance"):
            if after[cache]["runs"] != before[cache]["runs"]:
                problems.append(f"engine.{cache}.runs grew during the timed phase")
    else:
        rss = []
        while not rss or time.perf_counter() < deadline:
            rss.append(fresh_round(timed, wl.stream))
    # The probe replays the same writes on fresh daemons, so each of its
    # writes has several samples like the timed requests.
    for _ in range(PROBE_ROUNDS if wl.probe else 0):
        fresh_round(probe, wl.probe)
    writes = probe if wl.probe else timed

    if len(timed.samples) < MIN_REQUESTS:
        problems.append(f"fewer than {MIN_REQUESTS} distinct timed requests")
    if sorted({m for m, _ in writes.typical(WRITE_METHODS)}) != sorted(WRITE_METHODS):
        problems.append("a write method never ran")
    metrics = summarize(timed, writes)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
    return log, metrics, problems


def run_traced(wl, tools, work, seconds):
    del seconds  # the traced run replays a fixed amount of work, see README
    stream = traced_stream(wl)
    probe = wl.probe
    files = {}
    for part, items in (("warmup", wl.warmup), ("stream", stream), ("probe", probe)):
        files[part] = os.path.join(work, part + ".jsonl")
        with open(files[part], "wb") as f:
            for item in items:
                f.write(encode(item, 0))
    catalog = os.path.join(work, "catalog.vcp")
    with open(catalog, "w") as f:
        f.write(wl.catalog)
    trace_dir = os.path.join(OUT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    replies = os.path.join(work, "replies.jsonl")
    argv = [tools["trace"], f"--program={catalog}", f"--warmup={files['warmup']}",
            f"--stream={files['stream']}", f"--probe={files['probe']}",
            f"--replies={replies}", f"--threads={wl.threads}",
            f"--trace={os.path.join(trace_dir, wl.name + '.trace.json')}",
            f"--summary={os.path.join(trace_dir, wl.name + '.summary.json')}"]
    if wl.index:
        argv += [f"--index={os.path.join(work, 'catalog.vcidx')}",
                 f"--index-leaves={INDEX_LEAVES}"]
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE).stdout
    layer = json.loads(out.decode().strip().splitlines()[-1])
    items = wl.warmup + stream + probe
    with open(replies, "rb") as f:
        lines = f.read().splitlines()
    if len(lines) != len(items):
        die(f"traced run wrote {len(lines)} replies for {len(items)} requests")
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    return list(zip(items, lines)), metrics, []


def layer_unit(name):
    """The unit a per-layer metric's name spells out."""
    for part, unit in (("_us", "us"), ("_ms", "ms"), ("_ns_per_row", "ns/row")):
        if part in name:
            return unit
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def traced_stream(wl):
    """What the traced run replays: one round, or a fixed number of
    serve_warm's replayed requests, so its counts repeat exactly for a
    seed."""
    if wl.fresh:
        return wl.stream
    items = stream_order(wl)
    return [next(items) for _ in range(wl.trace_requests)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tools = build()
    wl = gen.WORKLOADS[args.workload](args.seed)
    work = os.path.join(OUT, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = run_traced if args.trace else run_daemon
    try:
        log, metrics, problems = runner(wl, tools, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = check.Checker(wl.catalog, seed=args.seed)
    failed = 0
    for item, reply in log:
        if not checker.check(item, item["expect"], json.loads(reply)):
            failed += 1
    checker.finish()
    for problem in problems + checker.errors[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not problems and not checker.errors,
        "attempted": len(log),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

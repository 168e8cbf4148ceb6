#!/usr/bin/env python3
"""The repo benchmark: four PMW workloads measured from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One workload run builds the program (dune), sets it up three times, runs a
fixed amount of closed-loop work, checks every output, prints a human report
and ends with one JSON line: the end-to-end metrics of BENCHMARK.json
(--trace 0) or the per-layer metrics (--trace 1; this also makes one
untraced pass, for the tracing overhead). --all runs every workload both
ways, prints the tables and writes .perfbench/results.json. See
perfbench/README.md for the workloads, the metrics and the layer map.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pbstats  # noqa: E402

WORK = ".perfbench"
CLI = "_build/default/bin/pmw_cli.exe"
BENCH = "_build/default/perfbench/pmwbench.exe"
DEADLINE_S = 170.0
SETUPS = 3

# Served workloads share the stock d=2 regression universe (|X| = 245) and
# a budget sized so nothing degrades or is rejected: the sparse-vector
# capacity k exceeds every request a run sends, T exceeds the hard rounds,
# and ε leaves room for every oracle call.
SERVE_ALPHA = 0.1
SERVE_ARGS = ["-n", "150000", "-k", "1000000", "--eps", "20", "--alpha", str(SERVE_ALPHA), "--t-max", "64"]
SERVE_N = 150000

# Requests per second each workload was sized with (2-core reference
# machine). A run issues rate x --seconds requests — a fixed count for a
# given --seconds, so a faster commit does the same work in less time.
# `ingest` sends 50 + 50 a second, about what it serves, so its run fills
# --seconds like the others' (at 30 + 30 it finished a 20 s run in 12 s).
WORKLOADS = {
    "panel": {"kind": "served", "shards": 1, "epoch_every": 0, "query_rps": 70.0},
    "fleet": {"kind": "served", "shards": 4, "epoch_every": 0, "query_rps": 9.0},
    "ingest": {"kind": "served", "shards": 1, "epoch_every": 140, "query_rps": 50.0, "ingest_rps": 50.0},
    # universe, dataset and budget of the stream are constants in pmwbench.ml
    "stream": {"kind": "stream", "qps": 6.67},
}

# The workloads BENCHMARK.json gates. `stream` and `panel` run (--workload,
# --all) but are not gated: the reference VM's speed drifts over minutes, and
# only runs of about 40 s kept every spread within its 0.25 bound, which the
# time allowed for all gated runs affords for two workloads. `stream`'s
# timings spread widest; `panel`'s layers are measured on `ingest` too, except
# solve reuse (memo hits), which only `panel` exercises.
GATED = ["fleet", "ingest"]

# The contract's metric lists; BENCHMARK.json must agree (tests check it).
END_TO_END = [
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("answer_p50_ms", "ms"),
    ("answer_p90_ms", "ms"),
    ("eps_spent", "eps"),
    ("rss_peak_mb", "MB"),
]

PER_LAYER = [
    ("net.codec_us", "us"),
    ("serve.post_answer_share", "ratio"),
    ("broker.queue_wait_share", "ratio"),
    ("broker.request_share", "ratio"),
    ("broker.batchmates_share", "ratio"),
    ("broker.batch_size_mean", "count"),
    ("journal.sync_p50_ms", "ms"),
    ("journal.sync_p99_ms", "ms"),
    ("journal.bytes_end", "bytes"),
    ("router.request_share", "ratio"),
    ("router.fanout_overhead_share", "ratio"),
    ("router.partial_share", "ratio"),
    ("epoch.transitions", "count"),
    ("epoch.transition_share", "ratio"),
    ("pmw.solve_hypothesis_ms", "ms"),
    ("pmw.solve_reference_ms", "ms"),
    ("pmw.self_ms", "ms"),
    ("pmw.memo_hit_share", "ratio"),
    ("pmw.hard_share", "ratio"),
    ("oracle.call_ms", "ms"),
    ("oracle.calls", "count"),
    ("session.degraded_share", "ratio"),
    ("mw.update_ms", "ms"),
    ("mw.updates", "count"),
    ("trace.overhead_share", "ratio"),
    ("unattributed_share", "ratio"),
]

# Which end-to-end metric each layer metric should move, and where — printed
# beside the per-layer table so a reader knows what to expect of a change.
MOVES = {
    "net.codec_us": "answer_p50_ms on panel, ingest; nothing on stream",
    "serve.post_answer_ms": "answer_p50_ms on panel, ingest; nothing on stream",
    "broker.queue_wait_ms": "answer_p90_ms on panel, fleet",
    "broker.request_ms": "answers_per_s on panel",
    "broker.batchmates_ms": "answer_p50_ms on panel (the batch's other requests, served first or after)",
    "broker.batch_size_mean": "answers_per_s on panel",
    "journal.sync_ms": "answer_p50_ms on panel, ingest; nothing on stream",
    "journal.bytes_end": "answer_p50_ms on panel, ingest",
    "router.request_ms": "answers_per_s, answer_p50_ms on fleet; nothing on panel",
    "router.fanout_overhead_ms": "answers_per_s, answer_p50_ms on fleet; nothing on panel",
    "router.partial_share": "answers_per_s on fleet",
    "epoch.transition_ms": "ingest_p99_ms, answer_p90_ms on ingest",
    "epoch.transitions": "ingest_p99_ms on ingest",
    "pmw.solve_hypothesis_ms": "answers_per_s on stream and panel",
    "pmw.solve_reference_ms": "answers_per_s on stream and panel",
    "pmw.self_ms": "answers_per_s on stream",
    "pmw.memo_hit_share": "answers_per_s on panel only (solve reuse)",
    "pmw.hard_share": "must not move anywhere: a move is a behaviour change",
    "oracle.call_ms": "answers_per_s on stream; about nothing on panel",
    "oracle.calls": "answers_per_s on stream",
    "session.degraded_share": "stays 0: the budget is sized so nothing degrades",
    "mw.update_ms": "answers_per_s on stream",
    "mw.updates": "answers_per_s on stream",
    "trace.overhead_share": "none",
    "unattributed_share": "none; what later in-program spans must explain",
}


def moves_for(name):
    """What a layer metric should move: a share row reads like the time it
    is a share of, and the probe's percentiles like journal.sync_ms."""
    for key in (name, re.sub(r"_share$", "_ms", name), re.sub(r"_p\d+_ms$", "_ms", name)):
        if key in MOVES:
            return MOVES[key]
    return ""


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# --- processes ---------------------------------------------------------------

_children = []


def stop_children():
    for p in _children:
        if p.poll() is None:
            p.kill()
        try:
            p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
    del _children[:]


class Clock:
    def __init__(self):
        self.start = time.monotonic()

    def left(self):
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 1:
            raise BenchError("out of time ({}s per run)".format(DEADLINE_S))
        return left


def child_env():
    env = dict(os.environ)
    env["PMW_DOMAINS"] = str(domains())
    return env


def domains():
    return len(os.sched_getaffinity(0))


def check_tree():
    for need in ("dune-project", "bin/pmw_cli.ml", "lib/server/net.ml", "perfbench/pmwbench.ml"):
        if not os.path.exists(need):
            raise BenchError("not a checkout of the repository (missing {})".format(need))


def build():
    cmd = ["dune", "build", "--root", ".", "./bin/pmw_cli.exe", "./perfbench/pmwbench.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    if r.returncode != 0 or not (os.path.exists(CLI) and os.path.exists(BENCH)):
        raise BenchError("build failed: " + " ".join(cmd))


def run_json_lines(cmd, clock):
    """Run a pmwbench subcommand; return its stdout parsed as JSON lines."""
    r = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), timeout=clock.left()
    )
    if r.returncode != 0:
        raise BenchError("{} failed ({}): {}".format(cmd[1], r.returncode, r.stderr.decode()[-2000:]))
    return [json.loads(l) for l in r.stdout.decode().splitlines() if l.strip()]


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def vm_hwm_kb(pid):
    with open("/proc/{}/status".format(pid)) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for pid {}".format(pid))


# --- served workloads ------------------------------------------------------------


class Server:
    def __init__(self, wl, seed, d, clock, trace=None):
        self.d = d
        self.sock = os.path.join(d, "pmw.sock")
        self.journal = os.path.join(d, "journal")
        self.out_path = os.path.join(d, "serve.out")
        args = [CLI, "serve"] + SERVE_ARGS + ["--seed", str(seed), "--socket", self.sock]
        args += ["--journal", self.journal]
        if wl["shards"] > 1:
            args += ["--shards", str(wl["shards"])]
        if wl["epoch_every"]:
            args += ["--epoch-every", str(wl["epoch_every"])]
        if trace:
            args += ["--trace", trace]
        self.out = open(self.out_path, "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(args, stdout=self.out, stderr=subprocess.STDOUT, env=child_env())
        _children.append(self.proc)
        self.setup_s = self._wait_ready(clock, t0)

    def _wait_ready(self, clock, t0):
        while True:
            if self.proc.poll() is not None:
                raise BenchError("server exited during set-up: " + self.output()[-2000:])
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
                return time.monotonic() - t0
            except OSError:
                clock.left()
                time.sleep(0.002)
            finally:
                s.close()

    def output(self):
        if not self.out.closed:
            self.out.flush()
        with open(self.out_path) as f:
            return f.read()

    def rss_kb(self):
        return vm_hwm_kb(self.proc.pid)

    def stop(self, clock):
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=min(60, clock.left()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("server did not drain on SIGTERM")
        self.out.close()
        if code != 0:
            raise BenchError("server exited {}: {}".format(code, self.output()[-2000:]))
        return self.output()

    def journals(self, wl):
        if wl["shards"] == 1 and not wl["epoch_every"]:
            return [self.journal]
        return ["{}.shard{}".format(self.journal, i) for i in range(wl["shards"])]


def plan_counts(wl, seconds):
    """(query requests per query analyst, ingest requests) for a run."""
    if wl.get("ingest_rps"):
        return max(1, round(wl["query_rps"] * seconds)), max(1, round(wl["ingest_rps"] * seconds))
    return max(1, round(wl["query_rps"] * seconds / 2)), 0


def served_pass(name, wl, seed, seconds, d, clock, setups, trace):
    """Set up `setups` servers (keeping the last), drive it, check it."""
    setup = []
    server = None
    for i in range(setups):
        sd = os.path.join(d, "setup{}".format(i))
        os.makedirs(sd)
        tr = os.path.join(sd, "trace.jsonl") if trace and i == setups - 1 else None
        server = Server(wl, seed, sd, clock, trace=tr)
        setup.append(server.setup_s)
        if i < setups - 1:
            server.stop(clock)
    queries, ingests = plan_counts(wl, seconds)
    samples_path = os.path.join(server.d, "samples.jsonl")
    cmd = [BENCH, "drive", "--socket", server.sock, "--seed", str(seed), "--n", str(SERVE_N)]
    cmd += ["--requests", str(queries), "--ingest-requests", str(ingests), "--out", samples_path]
    if trace:
        cmd += ["--codec"]
    run_json_lines(cmd, clock)
    rss_kb = server.rss_kb()
    stdout = server.stop(clock)
    samples = read_jsonl(samples_path)
    journals = {j["path"]: j for j in run_json_lines([BENCH, "jread"] + server.journals(wl), clock)}
    res = {
        "workload": name,
        "setup": setup,
        "samples": samples,
        "rss_kb": rss_kb,
        "journals": journals,
        "server_stdout": stdout,
        "dir": server.d,
        "trace": os.path.join(server.d, "trace.jsonl") if trace else None,
    }
    res["checks"] = served_checks(wl, res)
    return res


def served_checks(wl, res):
    checks = []
    bad = [s for s in res["samples"] if not s["ok"]]
    checks.append(("every answer finite, in its domain; ingest replies account for their rows",
                   not bad, "{} bad{}".format(len(bad), ", first: " + bad[0]["why"] if bad else "")))
    seen = [s["eps"] for s in res["samples"] if s.get("eps") is not None]
    errs = [j["error"] for j in res["journals"].values() if "error" in j]
    lifetime = [j["base_eps"] + j["cum_eps"] for j in res["journals"].values() if "error" not in j]
    covered = not errs and lifetime and (not seen or max(lifetime) >= max(seen) * (1 - 1e-12))
    checks.append(("debit-before-answer: final journal debit covers every spent_eps a client saw",
                   bool(covered),
                   "journal {} vs seen {}{}".format(max(lifetime) if lifetime else None,
                                                     max(seen) if seen else None,
                                                     "; " + "; ".join(errs) if errs else "")))
    if wl["shards"] > 1 or wl["epoch_every"]:
        m = re.search(r"(\d+) restarts", res["server_stdout"])
        restarts = int(m.group(1)) if m else None
        checks.append(("zero shard restarts", restarts == 0, "restarts: {}".format(restarts)))
    return checks


# --- the stream workload ---------------------------------------------------------


def stream_pass(wl, seed, seconds, d, clock, setups, trace):
    queries = max(3, round(wl["qps"] * seconds))
    samples_path = os.path.join(d, "samples.jsonl")
    cmd = [BENCH, "stream", "--seed", str(seed), "--queries", str(queries), "--setups", str(setups)]
    cmd += ["--out", samples_path]
    trace_path = os.path.join(d, "trace.jsonl")
    if trace:
        cmd += ["--trace", trace_path, "--spans", os.path.join(d, "bench_spans.jsonl")]
    summary = run_json_lines(cmd, clock)[-1]
    samples = read_jsonl(samples_path)
    bad = [s for s in samples if not s["ok"]]
    res = {
        "workload": "stream",
        "inputs": "seed{}-q{}".format(seed, queries),
        "setup": summary["setup_s"],
        "samples": samples,
        "rss_kb": summary["rss_kb"],
        "summary": summary,
        "dir": d,
        "trace": trace_path if trace else None,
        "checks": [("every answer finite and in its domain", not bad,
                    "{} bad".format(len(bad)))],
    }
    return res


def digest_check(res):
    """The stream's answers are a pure function of the build and its inputs:
    compare with the digest an earlier run of the same build recorded."""
    with open(BENCH, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(WORK, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "{}-{}.txt".format(build_id, res["inputs"]))
    digest = res["summary"]["digest"]
    if os.path.exists(path):
        with open(path) as f:
            earlier = f.read().strip()
        return ("answer digest identical to an earlier run of this build and seed",
                earlier == digest, "{} vs {}".format(digest, earlier))
    with open(path, "w") as f:
        f.write(digest + "\n")
    return ("answer digest recorded for later runs of this build and seed", True, digest)


# --- end-to-end metrics ----------------------------------------------------------


def wall_s(samples):
    return max(s["t1"] for s in samples) - min(s["t0"] for s in samples)


SEGMENTS = 5


def segments(samples):
    """SEGMENTS consecutive slices of the timed phase, equal request counts
    in completion order; one slice when there are too few samples."""
    done = sorted(samples, key=lambda s: s["t1"])
    size = len(done) // SEGMENTS
    if size < 2:
        return [done]
    return [done[k * size:(k + 1) * size] if k < SEGMENTS - 1 else done[k * size:]
            for k in range(SEGMENTS)]


def segment_rate(samples, counted):
    """Median over the slices of the timed phase of counted replies per
    second. A few seconds of a slow host then moves one slice, not the
    figure."""
    parts = segments(samples)
    rates = []
    start = min(s["t0"] for s in samples)
    for part in parts:
        end = part[-1]["t1"]
        rates.append(sum(1 for s in part if counted(s)) / (end - start))
        start = end
    return pbstats.median(rates)


def segment_latency(samples, p):
    """Median over the slices of the timed phase of each slice's p-th
    percentile latency (s), for the same reason as segment_rate. Pooled, a
    slow stretch covering a fifth of an ingest run would move its p50 to the
    fast stretches' p60, about a quarter higher (12.7 ms to 16.0 ms)."""
    return pbstats.median([pbstats.percentile([s["t1"] - s["t0"] for s in part], p)
                           for part in segments(samples)])


def end_to_end(res):
    samples = res["samples"]
    reads = [s for s in samples if s["kind"] == "query"]
    answered = [s for s in reads if s["st"] in ("answered", "degraded", "partial") and s["ok"]]
    answered_set = set(map(id, answered))
    lat = [s["t1"] - s["t0"] for s in reads]
    risks = [s["risk"] for s in answered if s["risk"] is not None]
    if res["workload"] == "stream":
        eps = res["summary"]["eps_spent"]
    else:
        # the ledger at the end: the largest lifetime cumulative debit of any
        # journal (parallel composition across shards)
        eps = max(j["base_eps"] + j["cum_eps"] for j in res["journals"].values() if "error" not in j)
    failed = [s for s in samples
              if s["st"] in ("transport", "error", "refused", "rejected", "partial") or not s["ok"]]
    e2e = {
        "setup_s": pbstats.median(res["setup"]),
        "answers_per_s": segment_rate(samples, lambda s: id(s) in answered_set),
        "answer_p50_ms": segment_latency(reads, 50) * 1e3,
        "answer_p90_ms": segment_latency(reads, 90) * 1e3,
        "eps_spent": eps,
        "rss_peak_mb": res["rss_kb"] / 1024.0,
    }
    extra = {
        "excess_risk_mean": pbstats.mean(risks),
        "risk_samples": len(risks),
        "attempted": len(samples),
        "failed": len(failed),
        "failed_share": len(failed) / len(samples),
        "lat": lat,
        "ingest_lat": [s["t1"] - s["t0"] for s in samples if s["kind"] == "ingest"],
        "degraded": sum(1 for s in reads if s["st"] == "degraded"),
    }
    return e2e, extra


def print_e2e(res, e2e, extra):
    name = res["workload"]
    log("")
    log("== {}: end-to-end (untraced), PMW_DOMAINS={} ==".format(name, domains()))
    log("  requests attempted {}, failed {} (failed_share {:.4f}), degraded {}".format(
        extra["attempted"], extra["failed"], extra["failed_share"], extra["degraded"]))
    units = dict(END_TO_END)
    for key, _ in END_TO_END:
        log("  {:<20} {:>14.6g} {}".format(key, e2e[key], units[key]))
    log("  {:<20} {}".format("setup_s runs", " ".join("{:.4f}".format(s) for s in res["setup"])))
    lat = extra["lat"]
    log("  {:<20} {} ms".format("answer_p99_ms", pbstats.tail_text(lat, 99, 1e3)))
    log("  {:<20} {:>14.6g} loss (mean over {} answers; not gated, see README)".format(
        "excess_risk_mean", extra["excess_risk_mean"], extra["risk_samples"]))
    if extra["ingest_lat"]:
        il = extra["ingest_lat"]
        log("  {:<20} {:.3f} ms (n={})".format("ingest_p50_ms", pbstats.percentile(il, 50) * 1e3, len(il)))
        log("  {:<20} {} ms".format("ingest_p99_ms", pbstats.tail_text(il, 99, 1e3)))
        log("  {:<20} {} ms".format("ingest_p90_ms", pbstats.tail_text(il, 90, 1e3)))
    for what, ok, detail in res["checks"]:
        log("  check {:<4} {} ({})".format("ok" if ok else "FAIL", what, detail))


# --- per-layer metrics (traced run) ------------------------------------------


def load_spans(events):
    """Pair span_begin/span_end events of one trace stream by id."""
    begins, out = {}, []
    for e in events:
        if e["kind"] == "span_begin":
            begins[e["id"]] = e
        elif e["kind"] == "span_end" and e["id"] in begins:
            b = begins.pop(e["id"])
            out.append({"name": e["name"], "id": e["id"], "parent": e["parent"], "ts": b["ts"],
                        "end": e["ts"], "dur": e["dur_s"], "f": b})
    return out


def counter_totals(events):
    totals = {}
    for e in events:
        if e["kind"] == "count":
            totals[e["name"]] = max(totals.get(e["name"], 0), e["total"])
    return totals


def session_layers(streams):
    """Online_pmw / Oracles / Mw / Session metrics from the session trace
    streams (one per broker or shard, or the stream workload's)."""
    q_spans, per_query_self, solve_h, solve_r, oracle, mw = [], [], 0.0, 0.0, [], []
    n_h = n_r = 0
    counters = {}
    for events in streams:
        spans = load_spans(events)
        child = {}
        for s in spans:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["dur"]
        for s in spans:
            if s["name"] == "query":
                q_spans.append(s)
                per_query_self.append(s["dur"] - child.get(s["id"], 0.0))
            elif s["name"] == "solve.hypothesis":
                solve_h += s["dur"]
                n_h += 1
            elif s["name"] == "solve.reference":
                solve_r += s["dur"]
                n_r += 1
            elif s["name"] == "oracle.call":
                oracle.append(s["dur"])
            elif s["name"] == "mw.update":
                mw.append(s["dur"])
        for k, v in counter_totals(events).items():
            counters[k] = counters.get(k, 0) + v
    nq = max(1, len(q_spans))
    hits = counters.get("solve_memo_hits", 0)
    return {
        "pmw.solve_hypothesis_ms": solve_h / nq * 1e3,
        "pmw.solve_reference_ms": solve_r / nq * 1e3,
        "pmw.self_ms": sum(per_query_self) / nq * 1e3,
        "pmw.memo_hit_share": hits / max(1, hits + n_h + n_r),
        "pmw.hard_share": counters.get("answered_from_oracle", 0) / nq,
        "oracle.call_ms": pbstats.median(oracle) * 1e3 if oracle else 0.0,
        "oracle.calls": float(len(oracle)),
        "session.degraded_share": counters.get("degraded_answers", 0) / nq,
        "mw.update_ms": pbstats.median(mw) * 1e3 if mw else 0.0,
        "mw.updates": float(len(mw)),
    }, q_spans


def served_layers(wl, res, clock):
    """Net / Broker / Router / Epoch / Journal metrics of a traced served run."""
    main = res["trace"]
    shard_files = sorted(glob.glob(main + ".shard*.inc*"))
    broker_files = shard_files if shard_files else [main]
    streams = {f: read_jsonl(f) for f in [main] + shard_files}
    reads = [s for s in res["samples"] if s["kind"] == "query"]
    # client samples join server.request spans by trace id behind a router,
    # by seq on the single broker
    keyed = wl["shards"] > 1 or wl["epoch_every"]
    # server.request spans of every broker, grouped into the batches they
    # were served in (consecutive seqs, `batch` of them per pass)
    legs_by_key = {}
    batch_sizes = []
    transitions = []
    for f in broker_files:
        spans = load_spans(streams[f])
        reqs = sorted((s for s in spans if s["name"] == "server.request"), key=lambda s: s["f"]["seq"])
        i = 0
        while i < len(reqs):
            group = reqs[i:i + reqs[i]["f"]["batch"]]
            begin, end = min(s["ts"] for s in group), max(s["end"] for s in group)
            for s in group:
                s["batch_end"] = end
                s["mates"] = (end - begin) - s["dur"]
                s["file"] = f
                legs_by_key.setdefault(s["f"].get("trace") if keyed else s["f"]["seq"], []).append(s)
            i += len(group)
        batch_sizes += [e["value"] for e in streams[f] if e["kind"] == "observe"
                        and e["name"] == "server.batch_size"]
        transitions += [s["dur"] for s in spans if s["name"] == "server.epoch.transition"]
    joined = []
    for s in res["samples"]:
        legs = legs_by_key.get(s["tr"] if keyed else s.get("seq"))
        if legs:
            joined.append((s, legs))
    if not joined:
        raise BenchError("no client request joined a server.request span")
    # Each trace stream has its own clock origin; t_send <= span begin bounds
    # it from below, and the tightest bound (an idle serializer) is within
    # the socket read time of the truth.
    origin = {}
    for s, legs in joined:
        for leg in legs:
            origin[leg["file"]] = max(origin.get(leg["file"], -1e18), s["t0"] - leg["ts"])
    roots = {}
    if keyed:
        for tree in run_json_lines([BENCH, "stitch", "--fleet", main] + shard_files, clock):
            if tree["root_dur"] is not None:
                roots[tree["tr"]] = tree["root_dur"]
    rows = {k: [] for k in ("qw", "req", "mates", "post", "unattr", "root", "fan")}
    shares = {k: [] for k in ("qw", "req", "mates", "post", "unattr", "root", "fan")}
    for s, legs in joined:
        if s["kind"] != "query":
            continue
        lat = s["t1"] - s["t0"]
        qw = s["qw"] or 0.0
        req = max(l["dur"] for l in legs)
        post = s["t1"] - max(origin[l["file"]] + l["batch_end"] for l in legs)
        mates = max(l["mates"] for l in legs)
        unattr = lat - qw - req
        for k, v in (("qw", qw), ("req", req), ("mates", mates), ("post", post), ("unattr", unattr)):
            rows[k].append(v)
            shares[k].append(v / lat)
        if s["tr"] in roots:
            rows["root"].append(roots[s["tr"]])
            rows["fan"].append(roots[s["tr"]] - req)
            shares["root"].append(roots[s["tr"]] / lat)
            shares["fan"].append((roots[s["tr"]] - req) / lat)
    med = lambda v: pbstats.median(v) if v else 0.0  # noqa: E731
    probe = journal_probe(res["dir"], clock)
    ingest_lat = [s["t1"] - s["t0"] for s in res["samples"] if s["kind"] == "ingest"]
    layer = {
        "serve.post_answer_share": med(shares["post"]),
        "broker.queue_wait_share": med(shares["qw"]),
        "broker.request_share": med(shares["req"]),
        "broker.batchmates_share": med(shares["mates"]),
        "broker.batch_size_mean": pbstats.mean(batch_sizes),
        "journal.sync_p50_ms": pbstats.percentile(probe, 50) * 1e3,
        "journal.sync_p99_ms": pbstats.percentile(probe, 99) * 1e3,
        "journal.bytes_end": float(sum(j.get("bytes", 0) for j in res["journals"].values())),
        "router.request_share": med(shares["root"]),
        "router.fanout_overhead_share": med(shares["fan"]),
        "router.partial_share": sum(1 for s in reads if s["st"] == "partial") / max(1, len(reads)),
        "epoch.transitions": float(len(transitions)),
        "epoch.transition_share": sum(transitions) / wall_s(res["samples"]),
        "unattributed_share": med(shares["unattr"]),
    }
    table = {
        "serve.post_answer_ms": ms_text(rows["post"]),
        "broker.queue_wait_ms": ms_text(rows["qw"], tails=(90, 99)),
        "broker.request_ms": ms_text(rows["req"]),
        "broker.batchmates_ms": ms_text(rows["mates"]),
        "router.request_ms": ms_text(rows["root"], tails=(90, 99)) if rows["root"] else "n/a (no router)",
        "router.fanout_overhead_ms": ms_text(rows["fan"]) if rows["fan"] else "n/a (no router)",
        "journal.sync_ms": ms_text(probe, tails=(99,)) + " (probe)",
        "epoch.transition_ms": ("p50 {:.3f} max {:.3f} (n={})".format(
            pbstats.median(transitions) * 1e3, max(transitions) * 1e3, len(transitions))
            if transitions else "n/a (no transitions)"),
        "joined": "{} of {} client requests joined to server spans".format(len(joined), len(res["samples"])),
    }
    if ingest_lat:
        table["ingest_ms"] = ms_text(ingest_lat, tails=(90, 99))
    session_streams = [streams[f] for f in broker_files]
    return layer, table, session_streams


def journal_probe(d, clock):
    """fsync times of 1000 two-answer batches appended through Journal."""
    cmd = [BENCH, "jprobe", "--path", os.path.join(d, "probe.journal")]
    return run_json_lines(cmd, clock)[-1]["sync_s"]


def ms_text(values, tails=()):
    if not values:
        return "n/a"
    parts = ["p50 {:.3f}".format(pbstats.median(values) * 1e3)]
    for p in tails:
        parts.append("p{:g} {}".format(p, pbstats.tail_text(values, p, 1e3)))
    if not tails:
        parts.append("(n={})".format(len(values)))
    return " ".join(parts)


def stream_layers(res, clock):
    reads = res["samples"]
    events = read_jsonl(res["trace"])
    session, q_spans = session_layers([events])
    # the i-th query span is the i-th Session.answer call
    unattr = [((s["t1"] - s["t0"]) - q["dur"]) / (s["t1"] - s["t0"]) for s, q in zip(reads, q_spans)]
    stages = {}
    for sp in read_jsonl(os.path.join(res["dir"], "bench_spans.jsonl")):
        stages.setdefault(sp["name"], []).append(sp["t1"] - sp["t0"])
    layer = {k: 0.0 for k, _ in PER_LAYER}
    layer.update(session)
    layer["unattributed_share"] = pbstats.median(unattr)
    layer["net.codec_us"] = pbstats.median([s["codec_s"] for s in reads]) * 1e6
    probe = journal_probe(res["dir"], clock)
    layer["journal.sync_p50_ms"] = pbstats.percentile(probe, 50) * 1e3
    layer["journal.sync_p99_ms"] = pbstats.percentile(probe, 99) * 1e3
    table = {name: "mean {:.3f} ms (n={})".format(pbstats.mean(v) * 1e3, len(v))
             for name, v in sorted(stages.items())}
    return layer, table


def print_layers(name, layer, table):
    units = dict(PER_LAYER)
    log("")
    log("== {}: per-layer (traced) ==".format(name))
    log("  {:<30} {:>14} {:<6} {}".format("metric", "value", "unit", "moves"))
    for key, _ in PER_LAYER:
        log("  {:<30} {:>14.6g} {:<6} {}".format(key, layer[key], units[key], moves_for(key)))
    for key, text in table.items():
        log("  {:<30} {}  {}".format(key, text, moves_for(key)))


# --- one workload ----------------------------------------------------------------


def run_workload(name, seed, seconds, traced, clock):
    wl = WORKLOADS[name]
    d = os.path.join(WORK, "{}-s{}-p{}".format(name, seed, os.getpid()))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    try:
        def one(sub, trace, setups):
            sd = os.path.join(d, sub)
            os.makedirs(sd)
            if wl["kind"] == "stream":
                return stream_pass(wl, seed, seconds, sd, clock, setups, trace)
            return served_pass(name, wl, seed, seconds, sd, clock, setups, trace)

        res = one("untraced", False, 1 if traced else SETUPS)
        if wl["kind"] == "stream":
            res["checks"].append(digest_check(res))
        e2e, extra = end_to_end(res)
        alpha = res["summary"]["alpha"] if wl["kind"] == "stream" else SERVE_ALPHA
        res["checks"].append(("accuracy: mean excess risk within the target alpha {:g}".format(alpha),
                              extra["excess_risk_mean"] <= alpha,
                              "{:.5f}".format(extra["excess_risk_mean"])))
        print_e2e(res, e2e, extra)
        checks = list(res["checks"])
        out = {"e2e": e2e, "attempted": extra["attempted"], "failed": extra["failed"]}
        if traced:
            tr = one("traced", True, 1)
            if wl["kind"] == "stream":
                same = tr["summary"]["digest"] == res["summary"]["digest"]
                tr["checks"].append(("traced and untraced stream digests agree", same,
                                     tr["summary"]["digest"]))
                layer, table = stream_layers(tr, clock)
            else:
                layer, table, session_streams = served_layers(wl, tr, clock)
                session, _ = session_layers(session_streams)
                layer.update(session)
                codec = [s["codec_s"] for s in tr["samples"] if s["codec_s"] > 0]
                layer["net.codec_us"] = pbstats.median(codec) * 1e6
            checks += tr["checks"]
            layer["trace.overhead_share"] = wall_s(tr["samples"]) / wall_s(res["samples"]) - 1
            print_layers(name, layer, table)
            for what, ok, detail in tr["checks"]:
                log("  check {:<4} {} (traced run; {})".format("ok" if ok else "FAIL", what, detail))
            out.update(layer=layer, attempted=extra["attempted"] + len(tr["samples"]))
            out["failed"] = extra["failed"] + end_to_end(tr)[1]["failed"]
        out["correct"] = all(ok for _, ok, _ in checks)
        return out
    finally:
        stop_children()
        shutil.rmtree(d, ignore_errors=True)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    # SIGTERM unwinds like an error, so the servers and generator it started
    # are killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(2))
    try:
        check_tree()
        build()
        os.makedirs(WORK, exist_ok=True)
        if args.all:
            results = {}
            for name in WORKLOADS:
                results[name] = run_workload(name, args.seed, args.seconds, True, Clock())
            with open(os.path.join(WORK, "results.json"), "w") as f:
                json.dump({"seed": args.seed, "seconds": args.seconds, "domains": domains(),
                           "workloads": results}, f, indent=1)
            ok = all(r["correct"] for r in results.values())
            log("")
            log("results written to {}; all checks {}".format(
                os.path.join(WORK, "results.json"), "passed" if ok else "FAILED"))
            return 0 if ok else 1
        r = run_workload(args.workload, args.seed, args.seconds, args.trace == 1, Clock())
        metrics = r["layer"] if args.trace else r["e2e"]
        names = PER_LAYER if args.trace else END_TO_END
        log(pbstats.result_line(r["correct"], r["attempted"], r["failed"],
                                {k: (metrics[k], u) for k, u in names}))
        return 0 if r["correct"] else 1
    except Exception as e:  # noqa: BLE001 — any failure is a failed run, never a result
        stop_children()
        print("perfbench: " + str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

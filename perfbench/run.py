#!/usr/bin/env python3
"""Seeded end-to-end benchmark of `seminal check` and `seminal serve`.

Run from the repository root:

    python3 perfbench/run.py --workload recompile --seed 1 --seconds 45 --trace 0

The script builds the release `seminal` binary with cargo (into
$CARGO_TARGET_DIR, default `target`), draws the workload's program
stream from the seed (programs.py), and feeds that same stream to three
front ends, in rounds of short slices so machine noise lands on all of
them alike:

  * one-shot `seminal check FILE`, one process per program, timed from
    spawn to exit;
  * one `seminal serve` process over stdio, driven by a single client
    in a closed loop (the next request goes out when the previous
    answer arrives), timed from request write to response line: the
    daemon unloaded;
  * one `seminal serve --tcp` daemon under an open loop: requests fall
    due on a fixed schedule, evenly spaced at each of the workload's
    three arrival rates in turn, and go out from one client thread over
    a pool of POOL connections whatever the daemon's progress. Each is
    timed from when it was due to its response line, so a stall also
    counts against the requests queued behind it.

Set-up is the daemon's start-up: spawn `seminal serve` until it answers
its first `metrics` request, sampled SETUPS times per round.

After each one-shot check and each served request the script times a
`true` spawn, the host probe. The end-to-end times are reported at a
reference host speed, each scaled by the probes of its own round and
each percentile matched to the probes' own (see HOST_REF_MS); the first
round is a warm-up whose times are left out.

Every answer is checked against the generator's ground truth (exit code
and status: ill-typed programs must get type errors and at least one
suggestion, a session's fixed program must type-check) and against
every other answer for the same source, whichever front end gave it and
however warm the daemon was. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end timings; with --trace 1 the same run
also collects per-search metric snapshots (`check --metrics-json`, and
the snapshot in every served response) and reports the per-layer
ledger.
"""

import argparse
import collections
import itertools
import json
import os
import re
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import programs  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
API = "seminal-api/v1"
SLICE_S = 0.5
PAPER_PARTS = 16
# The open loop's daemon admits one search per vCPU of a 2-vCPU host
# (`--max-inflight`), and its client holds more connections than that,
# so a burst queues at the daemon's admission gate, not in the client.
MAX_INFLIGHT = 2
POOL = 16
# Daemon start-ups timed per round.
SETUPS = 8
# The host's speed wanders by 10-30% from minute to minute as other
# tenants come and go, and it slows the program and a `true` spawn
# alike, while the program under test cannot change how long `true`
# takes. So every end-to-end time is reported at a reference speed.
# Each time is divided by the median host probe of the round it was
# taken in; a percentile of those quotients is then divided by the same
# percentile of the probes' own quotients, which matters for the p90 (a
# busy host lengthens the tails of both), and multiplied by that
# percentile of the probe on a 2-vCPU Xeon KVM guest at rest,
# HOST_REF_MS. A probe times the spawn right after a request, in the
# state the request left the machine in; probes timed back to back
# track the requests' drift less well. The --trace 1 ledger is raw, the
# probe's own median included (`check.harness_ms`).
HOST_REF_MS = {50: 1.6, 90: 1.92}

Workload = collections.namedtuple("Workload", "sessions rates limit_ms")
# Each stream is an endless run of sessions, the programs one student
# submits in turn; a run consumes as much of it as it has time for. The
# open loop's rates (requests/s) run from light load to about 60% of the
# rate at which queueing starts to set the p90 on a 2-vCPU host at rest:
# past that the p90 swings with every stall of the host, and a host
# slowed by its other tenants gets there sooner. `limit_ms` is the p90
# latency a rate must meet to count as sustained.
WORKLOADS = {
    "paper-sized": Workload(lambda gen: iter(lambda: [gen.paper_sized(PAPER_PARTS)], None),
                            (8, 16, 24), 150.0),
    "recompile": Workload(lambda gen: iter(gen.session, None), (80, 160, 240), 15.0),
}

_CLI_ANSWER = re.compile(
    r"Type-checker:\n(.*)\n\nOur approach:\n(.*)\n\((\d+) oracle calls, [^\n]*\)\n\Z", re.S)
_TOP_LINE = re.compile(r"^\[1\] At lines? (\d+)", re.M)
_LISTENING = re.compile(r"listening on (\S+):(\d+)")

# `twin`: the source differs from an earlier one in the stream only in
# its header comment, i.e. only in layout. `session`: the session's
# ordinal in the stream.
Item = collections.namedtuple("Item", "source faults ill_typed path twin session")


class Failure(Exception):
    pass


class Stream:
    """The workload's programs, rendered once and shared by all front ends."""

    def __init__(self, workload, seed, inputs):
        self.sessions = enumerate(WORKLOADS[workload].sessions(programs.Generator(seed)))
        self.items = []
        self.inputs = inputs
        self.first = {}

    def get(self, i):
        while len(self.items) <= i:
            session, progs = next(self.sessions)
            for prog in progs:
                source, faults, body = prog.render()
                path = os.path.join(self.inputs, f"p{len(self.items)}.ml")
                with open(path, "w") as f:
                    f.write(source)
                twin = self.first.setdefault(body, source) != source
                self.items.append(Item(source, faults, prog.ill_typed, path, twin, session))
        return self.items[i]


class Ledger:
    """Outcomes and samples of one run.

    Timings are kept per family ("check", "serve", ("load", rate), ...)
    twice: `raw`, all of them as measured, and `scaled`, those after the
    warm-up round, each divided by the median host probe of its round
    (see HOST_REF_MS)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.answers = {}
        self.twin_locations = []
        self.located = [0, 0]
        self.raw = collections.defaultdict(list)
        self.scaled = collections.defaultdict(list)
        self.pending = collections.defaultdict(list)
        self.check_snaps, self.serve_snaps = [], []

    def sample(self, family, value):
        self.pending[family].append(value)

    def close_round(self, keep):
        """Files the round's timings; `keep` false drops them from `scaled`."""
        round_samples, self.pending = self.pending, collections.defaultdict(list)
        probe = statistics.median(round_samples["host"])
        for family, values in round_samples.items():
            self.raw[family] += values
            if keep:
                self.scaled[family] += [v / probe for v in values]

    def at_reference(self, families, q):
        """The q-th percentile of the families' times at the reference
        host's speed."""
        values = [v for f in families for v in self.scaled[f]]
        return pct(values, q) / pct(self.scaled["host"], q) * HOST_REF_MS[q]

    def fail(self, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def agree(self, item, answer, front):
        """Same source, same answer: cold or warm, one-shot or served.

        One part is excused: the baseline's location when a daemon
        answers a layout twin. Its memo keys verdicts by a
        layout-insensitive fingerprint, so it may repeat the location it
        gave the earlier text; those locations are judged at the end
        against the trusted one for the source, and counted."""
        location, answer = answer[1], answer[:1] + answer[2:]
        seen = self.answers.setdefault(item.source, [answer, None, front])
        if seen[0] != answer:
            raise Failure(f"{front} answer differs from {seen[2]} answer for the same source")
        if item.twin and front != "check":
            self.twin_locations.append((item.source, location))
        elif seen[1] is None:
            seen[1] = location
        elif seen[1] != location:
            raise Failure(f"{front} baseline location differs from an earlier answer's")

    def stale(self):
        """(twin locations that differ from the trusted one, twins judged)."""
        judged = [(loc, self.answers[src][1]) for src, loc in self.twin_locations
                  if self.answers[src][1] is not None]
        return sum(a != b for a, b in judged), len(judged)

    def judge(self, rendered, faults):
        """Counts whether the top suggestion lands in a faulty declaration."""
        top = _TOP_LINE.search(rendered)
        if top is None:
            raise Failure("ill-typed program got no suggestion")
        line = int(top.group(1))
        self.located[1] += 1
        self.located[0] += any(a <= line <= b for a, b in faults)


def child_env():
    env = dict(os.environ)
    for key in [k for k in env if k.startswith("SEMINAL_")]:
        del env[key]
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise SystemExit("perfbench: no Cargo.toml at the checkout root; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "seminal"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: cargo build failed")
    return target, os.path.join(target, "release", "seminal")


def check_request(source):
    return {"type": "check", "source": source, "top": 3, "no_triage": False, "backend": "blame"}


def framed(request, ident):
    return (json.dumps(dict(request, api=API, id=ident)) + "\n").encode()


def unframed(reply, ident):
    if not reply:
        raise Failure("seminal serve closed its output")
    response = json.loads(reply)
    if response.get("id") != ident or response.get("api") != API:
        raise Failure(f"mismatched response to request {ident}")
    return response


class Server:
    """A `seminal serve` child over stdio."""

    def __init__(self, binary, live):
        self.sent = 0
        started = time.perf_counter()
        self.proc = subprocess.Popen([binary, "serve"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     cwd=ROOT, env=child_env())
        live.append(self.proc)
        self.metrics()
        self.startup_s = time.perf_counter() - started

    def send(self, request):
        """Returns (seconds from write to response line, parsed response)."""
        self.sent += 1
        line = framed(request, self.sent)
        t0 = time.perf_counter()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        return elapsed, unframed(reply, self.sent)

    def metrics(self):
        _, response = self.send({"type": "metrics"})
        if response.get("type") != "metrics" or response.get("status") != "ok":
            raise Failure("metrics request not answered")
        return response["metrics"]

    def shutdown(self):
        _, response = self.send({"type": "shutdown"})
        self.proc.stdin.close()
        code = self.proc.wait(timeout=60)
        if response.get("requests_served") != self.sent or code != 0:
            raise Failure("seminal serve did not shut down cleanly")


class Fleet:
    """A `seminal serve --tcp` daemon and the open loop's connections."""

    def __init__(self, binary, work, live):
        log = os.path.join(work, "fleet.log")
        with open(log, "w") as err:
            self.proc = subprocess.Popen(
                [binary, "serve", "--tcp", "127.0.0.1:0", "--max-inflight", str(MAX_INFLIGHT)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT,
                env=child_env())
        live.append(self.proc)
        deadline = time.perf_counter() + 30
        while True:
            with open(log) as f:
                m = _LISTENING.search(f.read())
            if m is not None:
                break
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise Failure("seminal serve --tcp did not start listening")
            time.sleep(0.005)
        self.ids = itertools.count(1)
        self.conns = [socket.create_connection((m.group(1), int(m.group(2))), timeout=60)
                      for _ in range(POOL)]
        for conn in self.conns:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.partial = {conn: b"" for conn in self.conns}

    def receive(self, conn):
        """Reads what `conn` holds: the response line once it is whole,
        else None. A connection carries one request at a time, so a
        response ends with the first newline read."""
        data = conn.recv(1 << 16)
        if not data:
            raise Failure("seminal serve --tcp closed a connection")
        self.partial[conn] += data
        if not self.partial[conn].endswith(b"\n"):
            return None
        line, self.partial[conn] = self.partial[conn], b""
        return line

    def call(self, conn, request):
        """Sends `request` over `conn` and waits for its response."""
        ident = next(self.ids)
        conn.sendall(framed(request, ident))
        line = None
        while line is None:
            line = self.receive(conn)
        return unframed(line, ident)

    def phase(self, items, rate):
        """Sends `items` due `1/rate` seconds apart from now, each over
        the connection idle longest. One thread does all the sending and
        reading, so the client adds no waits of its own for locks or
        thread switches. A student resubmits only after reading the
        previous answer, so an item whose predecessor in its session is
        still out is due when that answer arrives. Returns per item
        (seconds from due to answer, seconds the generator sent it late
        or None when it waited for a connection or an answer, response
        line, request id), or an exception in place of the tuple.
        Requests are framed before and responses parsed after, so the
        loop does little more than wait."""
        n = len(items)
        idents = [next(self.ids) for _ in items]
        frames = [framed(check_request(item.source), i) for item, i in zip(items, idents)]
        results = [Failure("not sent")] * n
        answered = [False] * n
        after, latest = [], {}
        for k, item in enumerate(items):
            after.append(latest.get(item.session))
            latest[item.session] = k
        waiting = {}                  # item still out -> its session's next item
        queue = collections.deque()   # (item, due, sent on schedule) to send
        idle = collections.deque(self.conns)
        out = {}                      # connection -> (item, due, lateness)
        admitted = 0

        def settle(k, result):
            results[k], answered[k] = result, True
            if k in waiting:
                queue.append((waiting.pop(k), time.perf_counter(), False))

        start = time.perf_counter()
        # select(2) takes its timeout in microseconds; epoll and poll
        # round it up to a whole millisecond, which would make sends late.
        with selectors.SelectSelector() as sel:
            for conn in idle:
                sel.register(conn, selectors.EVENT_READ)
            while True:
                now = time.perf_counter()
                while admitted < n and start + admitted / rate <= now:
                    k, admitted = admitted, admitted + 1
                    if after[k] is not None and not answered[after[k]]:
                        waiting[after[k]] = k
                    else:
                        queue.append((k, start + k / rate, len(queue) < len(idle)))
                while queue and idle:
                    k, due, on_schedule = queue.popleft()
                    conn = idle.popleft()
                    try:
                        conn.sendall(frames[k])
                    except OSError as e:
                        sel.unregister(conn)
                        settle(k, e)
                        continue
                    out[conn] = (k, due, time.perf_counter() - due if on_schedule else None)
                if admitted == n and not out:
                    break  # all answered, or no connection is left for the rest
                wait = max(start + admitted / rate - time.perf_counter(), 0) if admitted < n else None
                for key, _ in sel.select(wait):
                    conn = key.fileobj
                    try:
                        line = self.receive(conn)
                        if line is not None and conn not in out:
                            raise Failure("seminal serve --tcp answered no request")
                    except (OSError, Failure) as e:
                        sel.unregister(conn)
                        if conn in out:
                            settle(out.pop(conn)[0], e)
                        else:
                            idle.remove(conn)
                        continue
                    if line is None:
                        continue
                    k, due, late = out.pop(conn)
                    idle.append(conn)
                    settle(k, (time.perf_counter() - due, late, line, idents[k]))
        return results

    def shutdown(self):
        """Closes all but one connection, then stops the daemon over it."""
        for conn in self.conns[1:]:
            conn.close()
        conn = self.conns[0]
        metrics = self.call(conn, {"type": "metrics"})["metrics"]
        self.call(conn, {"type": "shutdown"})
        conn.close()
        if self.proc.wait(timeout=60) != 0:
            raise Failure("seminal serve --tcp did not shut down cleanly")
        return metrics


def check_once(binary, work, item, ledger, trace):
    cmd = [binary, "check", item.path]
    snap_path = os.path.join(work, "metrics.json")
    if trace:
        cmd[2:2] = ["--metrics-json", snap_path]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=60)
    wall = time.perf_counter() - t0
    want = 1 if item.ill_typed else 0
    if done.returncode != want:
        raise Failure(f"check exited {done.returncode}, expected {want}")
    if item.ill_typed:
        m = _CLI_ANSWER.match(done.stdout)
        if m is None:
            raise Failure("check output is not a suggestion report")
        answer = ("type_errors", *m.group(1).partition("\n")[::2], m.group(2), int(m.group(3)))
        ledger.judge(m.group(2), item.faults)
    else:
        if done.stdout != f"{item.path}: no type errors\n":
            raise Failure("well-typed check printed a report")
        answer = ("ok", None)
    ledger.agree(item, answer, "check")
    ledger.sample("check", wall * 1e3)
    if trace:
        with open(snap_path) as f:
            snap = json.load(f)
        ledger.check_snaps.append(snap)


def host_probe(ledger):
    """Times `true`, run the way `check_once` runs `seminal check`: the
    harness's own cost of a child process, and the host-speed probe."""
    t0 = time.perf_counter()
    subprocess.run(["true"], capture_output=True, text=True, cwd=ROOT, env=child_env(),
                   timeout=60)
    ledger.sample("host", (time.perf_counter() - t0) * 1e3)


def accept_served(r, item, ledger, front):
    want = ("type_errors", 1) if item.ill_typed else ("ok", 0)
    if (r.get("status"), r.get("exit_code")) != want or r.get("completion") != "complete":
        raise Failure(f"{front} check answered {r.get('status')}, expected {want[0]}")
    if item.ill_typed:
        if not r["payload"]:
            raise Failure(f"{front} check has no suggestions")
        answer = ("type_errors", *r["baseline"].partition("\n")[::2], r["rendered"],
                  r["stats"]["oracle_calls"])
    else:
        answer = ("ok", None)
    ledger.agree(item, answer, front)


def serve_once(server, item, ledger):
    elapsed, r = server.send(check_request(item.source))
    accept_served(r, item, ledger, "serve")
    ledger.sample("serve", elapsed * 1e3)
    ledger.serve_snaps.append(r["metrics"])


def load_phase(fleet, stream, cursor, rate, ledger):
    """One open-loop phase at `rate`; returns how many items it used."""
    items = [stream.get(cursor + k) for k in range(max(1, round(rate * SLICE_S)))]
    for item, result in zip(items, fleet.phase(items, rate)):
        ledger.attempted += 1
        try:
            if isinstance(result, Exception):
                raise Failure(f"load request failed: {result}")
            elapsed, late, line, ident = result
            accept_served(unframed(line, ident), item, ledger, "load")
            ledger.sample(("load", rate), elapsed * 1e3)
            if late is not None:
                ledger.sample("lateness", late * 1e3)
        except (Failure, KeyError, ValueError) as e:
            ledger.fail(f"load: {e}")
    if fleet.proc.poll() is not None:
        raise Failure("seminal serve --tcp exited")
    return len(items)


def pct(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def hist_sum(snap, key):
    return snap.get("histograms", {}).get(key, {}).get("sum", 0)


def per_layer(ledger, process, fleet_process, workload):
    """The per-layer ledger of the traced run.

    Times are raw means per request over the whole run, warm-up
    included, so each front end's layers add up to its mean latency:
    one-shot = harness + process + blame + oracle + search_other;
    served = wire + dispatch + blame + oracle + search_other."""

    def total(snaps, key):
        return sum(s["counters"].get(key, 0) for s in snaps)

    raw = ledger.raw
    cs, ss = ledger.check_snaps, ledger.serve_snaps
    out, search_ms = {}, {}
    for front, snaps in (("check", cs), ("serve", ss)):
        n = len(snaps)
        elapsed, blame = total(snaps, "elapsed_ns"), total(snaps, "blame_ns")
        oracle = sum(hist_sum(s, "oracle.latency_ns") for s in snaps)
        search_ms[front] = elapsed / n / 1e6
        out[f"{front}.blame_ms"] = (blame / n / 1e6, "ms")
        out[f"{front}.oracle_ms"] = (oracle / n / 1e6, "ms")
        out[f"{front}.search_other_ms"] = ((elapsed - blame - oracle) / n / 1e6, "ms")
    request_ms = process["histograms"]["server.request_ns"]["sum"] / len(ss) / 1e6
    floor_ms = statistics.median(raw["host"])
    calls = total(cs, "oracle_calls")
    hits = total(ss, "memo.cross_request_hits")
    misses = total(ss, "memo.cross_request_misses")
    stale, twins = ledger.stale()
    gate = fleet_process["histograms"].get("server.queue_depth_ns", {})
    rates = WORKLOADS[workload].rates
    p90s = [pct(raw["load", r], 90) for r in rates]
    sustained = [r for r, p in zip(rates, p90s) if p <= WORKLOADS[workload].limit_ms]
    out.update({
        "check.harness_ms": (floor_ms, "ms"),
        "check.process_ms": (statistics.fmean(raw["check"]) - search_ms["check"] - floor_ms,
                             "ms"),
        "serve.wire_ms": (statistics.fmean(raw["serve"]) - request_ms, "ms"),
        "serve.dispatch_ms": (request_ms - search_ms["serve"], "ms"),
        "load.low_p90_ms": (p90s[0], "ms"),
        "load.mid_p90_ms": (p90s[1], "ms"),
        "load.high_p90_ms": (p90s[2], "ms"),
        "load.max_rate_rps": (max(sustained, default=0), "1/s"),
        "load.lateness_ms": (pct(raw["lateness"], 90) if raw["lateness"] else 0.0, "ms"),
        "load.gate_wait_ms": (gate.get("sum", 0) / max(gate.get("count", 0), 1) / 1e6, "ms"),
        "load.shed": (fleet_process["counters"].get("server.shed", 0), "count"),
        "check.oracle_calls": (calls / len(cs), "count"),
        "serve.real_calls": (total(ss, "oracle.real_calls") / len(ss), "count"),
        "memo.hit_pct": (100.0 * hits / max(hits + misses, 1), "%"),
        "oracle.prefix_reuse_pct": (100.0 * total(cs, "oracle.incremental_hits") / calls, "%"),
        "oracle.decls_per_call": (total(cs, "oracle.decls_recheck") / calls, "count"),
        "quality.top1_located_pct": (100.0 * ledger.located[0] / max(ledger.located[1], 1), "%"),
        "serve.stale_baseline_pct": (100.0 * stale / max(twins, 1), "%"),
    })
    return out


def run(args):
    target, binary = build()
    work = os.path.join(target, "perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    stream = Stream(args.workload, args.seed, os.path.join(work, "inputs"))
    rates = WORKLOADS[args.workload].rates
    ledger = Ledger()
    live = []
    # Nothing may outlive the run: past this limit every child is killed,
    # which fails the pending operation instead of hanging.
    watchdog = threading.Timer(args.seconds + 90, lambda: [p.kill() for p in live])
    watchdog.daemon = True
    watchdog.start()
    process = fleet_process = None
    cursor = {"check": 0, "serve": 0, "load": 0}

    def one_round():
        """A round: set-ups, then a slice of each front end, each
        request followed by a host probe, then the open loop's rates."""
        # Start-ups every round, so set-up samples see the same machine
        # as the measured requests.
        for _ in range(SETUPS):
            fresh = Server(binary, live)
            ledger.sample("setup", fresh.startup_s)
            fresh.shutdown()
        for front in ("check", "serve"):
            stop = time.perf_counter() + SLICE_S
            while time.perf_counter() < stop:
                item = stream.get(cursor[front])
                cursor[front] += 1
                ledger.attempted += 1
                try:
                    if front == "check":
                        check_once(binary, work, item, ledger, args.trace)
                    else:
                        serve_once(server, item, ledger)
                except (Failure, subprocess.TimeoutExpired, KeyError, ValueError) as e:
                    ledger.fail(f"{front} #{cursor[front] - 1}: {e}")
                    if front == "serve" and server.proc.poll() is not None:
                        raise Failure(f"seminal serve exited: {e}")
                host_probe(ledger)
        for rate in rates:
            cursor["load"] += load_phase(fleet, stream, cursor["load"], rate, ledger)

    try:
        server = Server(binary, live)
        fleet = Fleet(binary, work, live)
        one_round()
        ledger.close_round(keep=False)
        started = time.perf_counter()
        # Whole rounds only, so every front end and every rate gets the
        # same share of the run.
        while True:
            one_round()
            ledger.close_round(keep=True)
            if time.perf_counter() - started >= args.seconds:
                break
        process = server.metrics()
        server.shutdown()
        fleet_process = fleet.shutdown()
    except (Failure, OSError) as e:
        ledger.fail(str(e))
        process = None
    finally:
        for p in live:
            if p.poll() is None:
                p.kill()
            p.wait()
        watchdog.cancel()
    for why in ledger.errors:
        print(f"perfbench: {why}", file=sys.stderr)
    scaled = ledger.scaled
    load = [("load", r) for r in rates]
    measured = all(scaled[f] for f in ["check", "serve", "setup"] + load)
    correct = ledger.failed == 0 and measured
    if not measured:
        metrics = {}
    elif args.trace:
        metrics = per_layer(ledger, process, fleet_process, args.workload) if process else {}
    else:
        metrics = {
            "check_p50_ms": (ledger.at_reference(["check"], 50), "ms"),
            "check_p90_ms": (ledger.at_reference(["check"], 90), "ms"),
            "serve_p50_ms": (ledger.at_reference(["serve"], 50), "ms"),
            "serve_p90_ms": (ledger.at_reference(["serve"], 90), "ms"),
            "load_p50_ms": (ledger.at_reference(load, 50), "ms"),
            "load_p90_ms": (ledger.at_reference(load, 90), "ms"),
            "setup_s": (ledger.at_reference(["setup"], 50), "s"),
        }
    per_rate = ", ".join(f"{len(scaled[f])} at {f[1]}/s" for f in load)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(scaled['check'])} checks, "
          f"{len(scaled['serve'])} served requests, {sum(len(scaled[f]) for f in load)} under "
          f"load ({per_rate}) timed; median host probe "
          f"{statistics.median(ledger.raw['host'] or [0]):.3f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sys.exit(run(p.parse_args()))


if __name__ == "__main__":
    main()

"""The serve-small workload: a ``repro serve --unix`` daemon, two clients.

The daemon runs as its own process with its default worker count.  Two
client threads of this process call ``ServeClient.convert`` in a closed
loop (each sends its next request when the previous reply arrives),
sharing the ops of one round; replies are checked between rounds, when
no request is in flight.  Every daemon is started from empty cache directories and is stopped, and
its socket removed, whatever happens to the run.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import inputs
import layers
import measure
from inproc import Ledger

#: Client threads; they model synchronous callers.
CLIENTS = 2
#: Calibration slices taken after each round (see measure.MachineSpeed).
SLICES_PER_ROUND = 4


@contextmanager
def daemon(root: Path, base: Path, env: dict):
    """Start ``repro serve --unix`` and yield (process, socket path).

    The socket path is relative to the checkout root, which both
    processes use as their working directory, so it stays within the
    unix-socket path limit however deep the checkout is.
    """
    sock = base / "s.sock"
    rel = os.path.relpath(sock, root)
    with open(base / "daemon.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", rel],
            cwd=root, env=env, stdout=log, stderr=log,
            stdin=subprocess.DEVNULL,
        )
        try:
            yield proc, rel
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            if sock.exists():
                sock.unlink()


def wait_ready(client, proc, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode}")
        try:
            client.health()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not become ready") from None
            time.sleep(0.01)


def first_calls(client, seed: int) -> None:
    """One valid request per (dst, tier), on small inputs."""
    for op in inputs.serve_small(seed, scale=inputs.SETUP_SCALE):
        if not op.expect_error:
            client.convert(op.container, op.dst, backend=op.tier,
                           assume_sorted=True)


def request(client, op, trace_id=None):
    """One round trip; returns (start, seconds, status, body)."""
    from repro.serve.client import ServeError

    extra = {"trace_id": trace_id} if trace_id else {}
    t0 = time.perf_counter()
    try:
        body = client.convert(op.container, op.dst, backend=op.tier,
                              assume_sorted=True, **extra)
        status = 200
    except ServeError as err:
        status, body = err.status, err.body
    return t0, time.perf_counter() - t0, status, body


def verdicts(op, status, body) -> list:
    import check

    if op.expect_error:
        return [check.check_rejection(status, body, op.expect_error)]
    if status != 200:
        return [check.Verdict(False, reason=f"HTTP {status}")]
    return [check.check_tier(op.tier, body.get("meta", {}).get("backend")),
            check.check_reply(body, op.dst, op.ref)]


def one_round(client, order, tag=None) -> tuple[float, float, list]:
    """The client threads share one round's ops in a closed loop.

    Returns the round's start and wall seconds, and one
    (op, start, seconds, status, body, trace id) per request.
    """
    queue = list(reversed(order))
    lock = threading.Lock()
    replies: list[tuple] = []
    errors: list[BaseException] = []

    def worker():
        try:
            while True:
                with lock:
                    if not queue:
                        return
                    n = len(queue)
                    op = queue.pop()
                trace_id = f"{tag}-{n}" if tag else None
                reply = request(client, op, trace_id)
                with lock:
                    replies.append((op, *reply, trace_id))
        except BaseException as err:  # noqa: BLE001 - re-raised below
            errors.append(err)

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return start, wall, replies


def closed_loop(client, ops, seconds, rng, ledger, speed=None, traced=None):
    """Whole rounds, each op once per round in a seeded order, for about
    ``seconds`` of round time.

    Between rounds, when no request is in flight, the replies are
    checked, ``traced`` (a list) collects per-op layer readings when
    given, and ``speed`` takes its calibration slices.  Returns each
    round's (start, wall seconds) and the shed count.
    """
    spent, shed, rounds = 0.0, 0, 0
    walls = []
    while True:
        tag = f"e2e-{rounds}" if traced is not None else None
        start, wall, replies = one_round(client, rng.sample(ops, len(ops)),
                                         tag)
        walls.append((start, wall))
        if speed is not None:
            speed.sample(SLICES_PER_ROUND)
        for op, at, seconds_, status, body, trace_id in replies:
            found = verdicts(op, status, body)
            ledger.add(op, seconds_, found, at)
            shed += status == 503
            if trace_id and status == 200 and all(v.ok for v in found):
                reading = _daemon_reading(client, trace_id, seconds_)
                reading.update(_encode_reading(op))
                reading["reply_bytes"] = len(json.dumps(body).encode())
                traced.append(reading)
        rounds += 1
        spent += wall
        if measure.last_round(spent, rounds, seconds):
            return walls, shed


def loop_seconds(walls, speed=None) -> float:
    """The rounds' summed wall time, at the reference machine's speed
    when ``speed`` is given."""
    if speed is None:
        return sum(w for _, w in walls)
    return sum(w * speed.scale(t + w / 2) for t, w in walls)


def _encode_reading(op) -> dict:
    """Client-side payload building and JSON encoding, timed apart."""
    from repro.serve.client import coo_payload

    t0 = time.perf_counter()
    doc = {"dst": op.dst, "matrix": coo_payload(op.container),
           "backend": op.tier, "assume_sorted": True}
    body = json.dumps(doc).encode()
    return {"encode": time.perf_counter() - t0, "request_bytes": len(body)}


#: Daemon span name -> per-layer metric.
DAEMON_SPANS = {
    "validate.input": "verify.check_input_ms",
    "validate.output": "verify.check_output_ms",
    "cache.lookup": "synthesis.lookup_ms",
    "execute": "runtime.inspector_ms",
    "pack_outputs": "formats.pack_ms",
    "serve.queue_wait": "serve.queue_wait_ms",
}


def _daemon_reading(client, trace_id: str, round_trip: float) -> dict:
    """Split one request with the daemon's own ``/debug/trace/<id>``."""
    root = client.debug_trace(trace_id)["root"]
    reading = {"round_trip": round_trip,
               "request": root["dur_us"] / 1e6, "spans": {}}

    def walk(node):
        for child in node["children"]:
            name = child["name"]
            reading["spans"][name] = (reading["spans"].get(name, 0.0)
                                      + child["dur_us"] / 1e6)
            if name == "convert":
                inner = sum(c["dur_us"] for c in child["children"]) / 1e6
                reading["convert"] = child["dur_us"] / 1e6
                reading["convert_self"] = reading["convert"] - inner
            walk(child)

    walk(root)
    return reading


def _cache_counters(client) -> dict:
    return client.stats()["cache"]["counters"]


def run(args, root: Path, work: Path, fresh_env, setup_samples: int) -> dict:
    """Set the daemon up ``setup_samples`` times; measure on the last."""
    os.environ.update(fresh_env(work / "client"))
    from repro.serve.client import ServeClient

    ops = inputs.serve_small(args.seed)
    inputs.attach_references(ops)
    setups = []
    for i in range(setup_samples):
        base = work / f"d{i}"
        env = fresh_env(base)
        spawned = time.monotonic()
        with daemon(root, base, env) as (proc, sock):
            client = ServeClient(sock)
            wait_ready(client, proc)
            first_calls(client, args.seed)
            setups.append(time.monotonic() - spawned)
            if i < setup_samples - 1:
                continue
            doc = measure_daemon(args, client, proc, ops)
    doc["setup_samples"] = setups
    return doc


def measure_daemon(args, client, proc, ops) -> dict:
    rng = random.Random(args.seed)
    closed_loop(client, ops, 0.0, rng, Ledger())  # warm-up round
    gc.collect()
    gc.freeze()
    if not args.trace:
        ledger = Ledger()
        speed = measure.MachineSpeed()
        walls, shed = closed_loop(client, ops, args.seconds, rng, ledger,
                                  speed)
        summary = ledger.end_to_end(loop_seconds(walls, speed), speed)
        summary["metrics"]["peak_rss_mib"] = measure.metric(
            measure.peak_rss_mib(proc.pid), "MiB")
        return {"metrics": summary["metrics"], "tail": summary["tail"],
                "raw_metrics": ledger.end_to_end(loop_seconds(walls))[
                    "metrics"],
                "speed": speed.summary(),
                "op_ms": summary["op_ms"],
                "attempted": len(ledger.latency), "failed": ledger.failed,
                "reasons": ledger.reasons[:20], "shed": shed}

    values = layers.empty()
    speed = measure.MachineSpeed()
    base = Ledger()
    before = _cache_counters(client)
    _, shed_base = closed_loop(client, ops, args.seconds / 2, rng, base,
                               speed)
    values["synthesis.memo_hit_frac"] = layers.memo_hit_frac(
        before, _cache_counters(client))
    traced = Ledger()
    readings: list[dict] = []
    _, shed_traced = closed_loop(client, ops, args.seconds / 2, rng, traced,
                                 speed, readings)
    median = sorted(readings, key=lambda r: r["round_trip"])[
        (len(readings) - 1) // 2]
    for span_name, name in DAEMON_SPANS.items():
        values[name] = median["spans"].get(span_name, 0.0) * 1e3
    values["convert.wall_ms"] = median["convert"] * 1e3
    values["convert.unattributed_ms"] = median["convert_self"] * 1e3
    values["runtime.inspector_share"] = (
        median["spans"].get("execute", 0.0) / median["convert"])
    values["serve.client_encode_ms"] = median["encode"] * 1e3
    values["serve.request_ms"] = median["request"] * 1e3
    values["serve.convert_ms"] = median["convert"] * 1e3
    values["serve.outside_root_ms"] = (
        median["round_trip"] - median["request"]) * 1e3
    values["serve.request_bytes"] = median["request_bytes"]
    values["serve.reply_bytes"] = median["reply_bytes"]
    attempted = len(base.latency) + len(traced.latency)
    values["serve.shed_frac"] = (shed_base + shed_traced) / attempted
    values["planner.padded_routes"] = base.padded + traced.padded
    values["bench.trace_overhead_frac"] = layers.trace_overhead(base, traced,
                                                                speed)
    pairs = {("SCOO", dst, tier) for dst in inputs.SERVE_DSTS
             for tier in inputs.TIERS}
    values.update(layers.pair_probes(pairs))
    values.update(layers.baselines_probe(layers.uniform_input(ops,
                                                              args.seed)))
    return {"metrics": layers.as_metrics(values, speed), "attempted": attempted,
            "failed": base.failed + traced.failed,
            "reasons": (base.reasons + traced.reasons)[:20]}

"""Child process of the in-process workloads: convert-large, plan-route.

The orchestrator (``run.py``) starts this file with fresh, empty cache
directories in the environment.  The child times its own set-up (import,
synthesis, compilation and the first call of every operation, on small
inputs of the same families) from the moment it was spawned.  A set-up
child stops there; the measuring child goes on to build the full inputs,
warm up, run the timed closed loop, and, with ``--trace 1``, the traced
run.  Its last stdout line is one JSON document.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import measure  # noqa: E402


# ----------------------------------------------------------------------
# One operation, as a caller makes it
# ----------------------------------------------------------------------
def call(workload: str, op):
    import repro

    if workload == "plan-route":
        return repro.convert_via_plan(op.container, op.dst, backend=op.tier,
                                      matrix_aware=True)
    return repro.convert(op.container, op.dst, backend=op.tier,
                         assume_sorted=op.assume_sorted)


class Routes:
    """The planner's route per op, held to be stationary across a run.

    Learned costs are off (``REPRO_COSTS_DISABLE=1``), so a route is a
    function of the input's stats alone.  Stats are computed once per
    container, outside timing; the route is re-planned after every op.
    """

    def __init__(self):
        self.first: dict[tuple, str] = {}
        self.stats: dict[int, object] = {}
        self.changes = 0
        self.hops: list[int] = []

    def observe(self, op) -> bool:
        from repro import container_format, default_planner
        from repro.planner import matrix_stats

        key = id(op.container)
        if key not in self.stats:
            self.stats[key] = matrix_stats(op.container)
        src = container_format(op.container, assume_sorted=True)
        plan = default_planner(op.tier).plan(src, op.dst,
                                             stats=self.stats[key])
        route = "->".join(plan.formats)
        self.hops.append(len(plan.steps))
        seen = self.first.setdefault((op.label, op.tier), route)
        if seen != route:
            self.changes += 1
            return False
        return True


class Ledger:
    """Latency and verdict of every timed op."""

    def __init__(self):
        self.latency: list[float] = []
        #: perf_counter() at the start of each op.
        self.at: list[float] = []
        self.label: list[str] = []
        self.tier: list[str] = []
        self.nnz: list[int] = []
        self.failed = 0
        self.padded = 0
        self.reasons: list[str] = []

    def add(self, op, seconds: float, verdicts, at: float = 0.0) -> None:
        self.latency.append(seconds)
        self.at.append(at)
        self.label.append(f"{op.label}/{op.tier}")
        self.tier.append(op.tier)
        # A rejected request converts nothing; it stays out of nnz/s.
        self.nnz.append(0 if op.expect_error else op.nnz)
        bad = [v.reason for v in verdicts if not v.ok]
        if bad:
            self.failed += 1
            self.reasons.extend(f"{op.label}/{op.tier}: {r}" for r in bad)
        self.padded += any(v.padded for v in verdicts)

    def scaled(self, speed=None) -> list[float]:
        """Op latencies at the reference machine's speed (as measured
        when ``speed`` is None)."""
        if speed is None:
            return list(self.latency)
        return [s * speed.scale(t) for s, t in zip(self.latency, self.at)]

    def end_to_end(self, wall: float | None = None, speed=None) -> dict:
        """End-to-end metrics; ``wall`` is the loop's own time for a
        concurrent loop, already scaled by the caller."""
        latency = self.scaled(speed)
        ms = [s * 1e3 for s in latency]
        tail = measure.tail(ms)
        busy = wall if wall is not None else sum(latency)
        metrics = {
            "op_p50_ms": measure.metric(measure.median(ms), "ms"),
            "op_tail_ms": measure.metric(tail["value"], "ms"),
            "ops_per_s": measure.metric(len(ms) / busy, "1/s"),
            "ops_ok_frac": measure.metric(
                (len(ms) - self.failed) / max(len(ms), 1), "fraction"),
        }
        for tier in inputs.TIERS:
            picked = [i for i, t in enumerate(self.tier)
                      if t == tier and self.nnz[i]]
            seconds = sum(latency[i] for i in picked)
            nnz = sum(self.nnz[i] for i in picked)
            metrics[f"{tier}.nnz_per_s"] = measure.metric(
                nnz / seconds if seconds else 0.0, "1/s")
        by_op: dict[str, list[float]] = {}
        for label, value in zip(self.label, ms):
            by_op.setdefault(label, []).append(value)
        return {"metrics": metrics, "tail": tail, "op_ms": by_op}


def verdicts_for(workload: str, op, result, routes: Routes) -> list:
    from repro.backends import available_backend

    import check

    verdicts = [
        check.check_tier(op.tier, available_backend(op.tier).name),
        check.check_container(result, op.dst, op.ref),
    ]
    if workload == "plan-route" and not routes.observe(op):
        verdicts.append(check.Verdict(False, reason="route changed"))
    return verdicts


def closed_loop(workload, ops, seconds, rng, ledger, routes, speed=None):
    """Whole rounds, each op once per round in a seeded order, for about
    ``seconds`` (see ``measure.last_round``).  Checks run outside the
    timer; so does the calibration slice ``speed`` takes before each op."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in rng.sample(ops, len(ops)):
            gc.collect()
            if speed is not None:
                speed.sample()
            t0 = time.perf_counter()
            result = call(workload, op)
            elapsed = time.perf_counter() - t0
            ledger.add(op, elapsed, verdicts_for(workload, op, result, routes),
                       t0)
        rounds += 1
        spent = time.perf_counter() - start
        if measure.last_round(spent, rounds, seconds):
            return rounds


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(workload: str, seed: int, spawned: float) -> float:
    """Import, synthesis and compilation of every pair, and a first call
    of every op on small inputs; seconds since the process was spawned,
    minus the time spent generating the small inputs."""
    import repro  # noqa: F401

    imported = time.monotonic()
    small = inputs.WORKLOADS[workload](seed, scale=inputs.SETUP_SCALE)
    t0 = time.monotonic()
    for op in small:
        call(workload, op)
    return (imported - spawned) + (time.monotonic() - t0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("convert-large", "plan-route"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    setup_s = set_up(args.workload, args.seed, args.spawned)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = inputs.WORKLOADS[args.workload](args.seed)
    inputs.attach_references(ops)
    rng = random.Random(args.seed)
    routes = Routes()
    # set_up() already ran every op on small inputs in this process; one
    # untimed pass over the c ops compiles what the large inputs' routes
    # add, so no timed op pays for the compiler.
    closed_loop(args.workload, [op for op in ops if op.tier == "c"], 0.0,
                rng, Ledger(), routes)
    # Keep the benchmark's own inputs and references out of the
    # collections the ops trigger, and make the pre-op collect cheap.
    gc.collect()
    gc.freeze()

    if args.trace:
        import layers

        doc = layers.traced_run(args.workload, ops, args.seed, args.seconds,
                                rng, routes, args.spans_out)
    else:
        ledger = Ledger()
        speed = measure.MachineSpeed()
        rounds = closed_loop(args.workload, ops, args.seconds, rng, ledger,
                             routes, speed)
        summary = ledger.end_to_end(speed=speed)
        summary["metrics"]["peak_rss_mib"] = measure.metric(
            measure.peak_rss_mib("self"), "MiB")
        doc = {
            "metrics": summary["metrics"],
            "raw_metrics": ledger.end_to_end()["metrics"],
            "speed": speed.summary(),
            "tail": summary["tail"],
            "op_ms": summary["op_ms"],
            "rounds": rounds,
            "attempted": len(ledger.latency),
            "failed": ledger.failed,
            "reasons": ledger.reasons[:20],
            "route_changes": routes.changes,
        }
    doc["setup_s"] = setup_s
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced run: per-layer metrics from spans around public calls.

After each real ``convert()`` / ``convert_via_plan()`` call the traced
run replays the call's public steps under spans of the benchmark's own
(``measure.SpanRecorder``), so the replayed chain's self times plus
``convert.unattributed_ms`` sum to the real call's wall time.  Layers
are named after the repo's modules.  A metric whose layer a workload
does not exercise reads 0 on that workload (for example ``serve.*`` on
the in-process workloads).
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
import time
from contextlib import contextmanager

import inputs
import measure

#: Every per-layer metric, with its unit.  BENCHMARK.json lists the same.
PER_LAYER = {
    "verify.check_input_ms": "ms",
    "verify.check_output_ms": "ms",
    "formats.resolve_ms": "ms",
    "formats.bind_ms": "ms",
    "formats.pack_ms": "ms",
    "backends.marshal_in_ms": "ms",
    "backends.materialize_ms": "ms",
    "backends.marshal_bytes": "bytes",
    "runtime.inspector_ms": "ms",
    "runtime.output_bytes": "bytes",
    "runtime.inspector_share": "fraction",
    "runtime.sortedness_scans_per_op": "count",
    "convert.wall_ms": "ms",
    "convert.unattributed_ms": "ms",
    "synthesis.lookup_ms": "ms",
    "synthesis.memo_hit_frac": "fraction",
    "synthesis.cold_ms": "ms",
    "synthesis.disk_load_ms": "ms",
    "synthesis.source_lines": "count",
    "backends.c_compile_ms": "ms",
    "backends.numpy_vector_frac": "fraction",
    "planner.stats_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.execute_ms": "ms",
    "planner.hops_per_op": "count",
    "planner.padded_routes": "count",
    "planner.route_changes": "count",
    "serve.client_encode_ms": "ms",
    "serve.request_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.convert_ms": "ms",
    "serve.outside_root_ms": "ms",
    "serve.request_bytes": "bytes",
    "serve.reply_bytes": "bytes",
    "serve.shed_frac": "fraction",
    "baselines.taco_style_ms": "ms",
    "baselines.sparskit_style_ms": "ms",
    "baselines.mkl_style_ms": "ms",
    "baselines.synth_over_best_ratio": "ratio",
    "bench.trace_overhead_frac": "fraction",
}

#: Replayed-chain span name -> per-layer metric of its self time.
CHAIN = {
    "verify.check_input": "verify.check_input_ms",
    "verify.check_output": "verify.check_output_ms",
    "formats.resolve": "formats.resolve_ms",
    "formats.bind": "formats.bind_ms",
    "formats.pack": "formats.pack_ms",
    "backends.marshal_in": "backends.marshal_in_ms",
    "backends.materialize": "backends.materialize_ms",
    "runtime.inspector": "runtime.inspector_ms",
    "synthesis.lookup": "synthesis.lookup_ms",
    "planner.stats": "planner.stats_ms",
    "planner.plan": "planner.plan_ms",
}


def empty() -> dict:
    return {name: 0.0 for name in PER_LAYER}


def as_metrics(values: dict, speed) -> dict:
    """Per-layer metrics; times are scaled to the reference machine's
    speed by the run's calibration slices, like the end-to-end ones."""
    scale = speed.overall()
    return {name: measure.metric(values[name] * (scale if unit == "ms"
                                                 else 1.0), unit)
            for name, unit in PER_LAYER.items()}


def _nbytes(values) -> int:
    total = 0
    for value in values.values():
        nbytes = getattr(value, "nbytes", None)
        if nbytes is not None:
            total += int(nbytes)
    return total


# ----------------------------------------------------------------------
# Replays of convert()'s and convert_via_plan()'s public steps
# ----------------------------------------------------------------------
def _hop(rec, conv, tier, dst, container):
    from repro import container_to_env, outputs_to_container
    from repro.backends import get_backend

    backend = get_backend(tier)
    with rec.span("formats.bind"):
        env = container_to_env(container)
        args = {p: env[p] for p in conv.params}
    with rec.span("backends.marshal_in") as span:
        staged = backend.native_inputs(args)
    span.attrs["bytes"] = _nbytes(staged)
    with rec.span("runtime.inspector") as span:
        native = conv.run_native(**staged)
    span.attrs["bytes"] = _nbytes(native)
    with rec.span("backends.materialize"):
        outputs = backend.materialize(native)
    with rec.span("formats.pack"):
        return outputs_to_container(dst, outputs, conv.uf_output_map, env)


def replay(rec, workload, op, pairs: set) -> None:
    """Re-run the op's public steps one by one, each under its span."""
    from repro import container_format, default_planner, get_conversion
    from repro.planner import matrix_stats
    from repro.verify import gate

    c = op.container
    with rec.span("verify.check_input"):
        gate.check_input(c, level="inputs", assume_sorted=op.assume_sorted)
    with rec.span("formats.resolve"):
        src = container_format(c, assume_sorted=op.assume_sorted)
    if workload == "plan-route":
        planner = default_planner(op.tier)
        with rec.span("planner.stats"):
            stats = matrix_stats(c)
        with rec.span("planner.plan"):
            plan = planner.plan(src, op.dst, stats=stats)
        with rec.span("planner.execute"):
            current = c
            for step in plan.steps:
                with rec.span("synthesis.lookup"):
                    conv = planner.conversion(step.src, step.dst)
                pairs.add((step.src, step.dst, op.tier))
                current = _hop(rec, conv, op.tier, step.dst, current)
    else:
        with rec.span("synthesis.lookup"):
            conv = get_conversion(src, op.dst, backend=op.tier)
        pairs.add((src, op.dst, op.tier))
        current = _hop(rec, conv, op.tier, op.dst, c)
    with rec.span("verify.check_output"):
        gate.check_output(current, c, level="inputs")


class ScanCounter:
    """Counts ``COOMatrix.first_unsorted_position`` calls while active.

    Installed for the traced run only, never for the timed runs.
    """

    def __init__(self):
        self.count = 0
        self.active = False

    @contextmanager
    def installed(self):
        from repro import COOMatrix

        original = COOMatrix.first_unsorted_position
        counter = self

        def counted(matrix):
            if counter.active:
                counter.count += 1
            return original(matrix)

        COOMatrix.first_unsorted_position = counted
        try:
            yield self
        finally:
            COOMatrix.first_unsorted_position = original


def _cache_counters() -> dict:
    from repro.synthesis.cache import cache_stats

    return dict(cache_stats()["counters"])


def memo_hit_frac(before: dict, after: dict) -> float:
    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    hits = delta("cache.memo.hit")
    lookups = hits + delta("cache.disk.hit") + delta("cache.miss")
    # No lookups at all (the planner holds its own conversions) is no miss.
    return hits / lookups if lookups else 1.0


def traced_run(workload, ops, seed, seconds, rng, routes, spans_out) -> dict:
    """Untraced half, then traced half, then the one-off layer probes."""
    from inproc import Ledger, call, closed_loop, verdicts_for

    values = empty()
    speed = measure.MachineSpeed()
    base = Ledger()
    before = _cache_counters()
    closed_loop(workload, ops, seconds / 2, rng, base, routes, speed)
    values["synthesis.memo_hit_frac"] = memo_hit_frac(before,
                                                      _cache_counters())

    rec = measure.SpanRecorder()
    traced = Ledger()
    per_op = []
    pairs: set = set()
    scans = ScanCounter()
    start = time.perf_counter()
    rounds = 0
    with scans.installed():
        while True:
            for op in rng.sample(ops, len(ops)):
                gc.collect()
                speed.sample()
                rec.op += 1
                with rec.span("op", label=op.label, tier=op.tier):
                    scans.active = True
                    with rec.span("convert") as real:
                        result = call(workload, op)
                    scans.active = False
                    # The replay starts from the same collector state as
                    # the real call did.
                    gc.collect()
                    with rec.span("replay") as chain:
                        replay(rec, workload, op, pairs)
                    with rec.span("check"):
                        verdicts = verdicts_for(workload, op, result, routes)
                traced.add(op, real.duration, verdicts, real.start)
                per_op.append(_breakdown(rec, real, chain))
            rounds += 1
            spent = time.perf_counter() - start
            if measure.last_round(spent, rounds, seconds / 2):
                break

    # The chain of the median op: its self times plus unattributed time
    # sum to its convert() wall time.
    median_op = sorted(per_op, key=lambda b: b["wall"])[(len(per_op) - 1) // 2]
    for span_name, name in CHAIN.items():
        values[name] = median_op["self"].get(span_name, 0.0) * 1e3
    values["planner.execute_ms"] = median_op["execute"] * 1e3
    values["convert.wall_ms"] = median_op["wall"] * 1e3
    values["convert.unattributed_ms"] = median_op["unattributed"] * 1e3
    values["runtime.inspector_share"] = (
        median_op["self"].get("runtime.inspector", 0.0) / median_op["wall"])
    values["backends.marshal_bytes"] = median_op["marshal_bytes"]
    values["runtime.output_bytes"] = median_op["output_bytes"]
    values["runtime.sortedness_scans_per_op"] = scans.count / len(per_op)
    if workload == "plan-route":
        values["planner.hops_per_op"] = (
            sum(routes.hops) / len(routes.hops))
    values["planner.padded_routes"] = base.padded + traced.padded
    values["planner.route_changes"] = routes.changes
    values["bench.trace_overhead_frac"] = trace_overhead(base, traced, speed)

    values.update(pair_probes(pairs))
    values.update(baselines_probe(uniform_input(ops, seed)))

    if spans_out:
        with open(spans_out, "w") as fh:
            json.dump({"workload": workload, "spans": rec.to_json()}, fh)
    failed = base.failed + traced.failed
    attempted = len(base.latency) + len(traced.latency)
    return {
        "metrics": as_metrics(values, speed),
        "attempted": attempted,
        "failed": failed,
        "reasons": (base.reasons + traced.reasons)[:20],
        "route_changes": routes.changes,
        "median_op_self_ms": {k: v * 1e3
                              for k, v in median_op["self"].items()},
    }


def trace_overhead(base, traced, speed) -> float:
    """Traced over untraced ``op_p50_ms``, minus one; both halves at the
    reference machine's speed, so drift between them does not show."""
    return (measure.median(traced.scaled(speed))
            / measure.median(base.scaled(speed)) - 1.0)


def _breakdown(rec, real, chain) -> dict:
    selfs = measure.self_times(rec, chain)
    spans = rec.descendants(chain.index)
    execute = sum(s.duration for s in spans if s.name == "planner.execute")
    return {
        "wall": real.duration,
        "self": selfs,
        "unattributed": real.duration - sum(selfs.values()),
        "execute": execute,
        "marshal_bytes": sum(s.attrs.get("bytes", 0) for s in spans
                             if s.name == "backends.marshal_in"),
        "output_bytes": sum(s.attrs.get("bytes", 0) for s in spans
                            if s.name == "runtime.inspector"),
    }


# ----------------------------------------------------------------------
# One-off probes of synthesis, compilation and the paper's baselines
# ----------------------------------------------------------------------
def _timed(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def pair_probes(pairs: set) -> dict:
    """Synthesis, disk-cache and compile costs of the (src, dst, tier)
    conversions a workload used."""
    import repro
    from repro.backends import c_backend
    from repro.ir import memo
    from repro.synthesis.cache import clear_memo

    pairs = sorted(pairs)
    lines = vectorized = nests = 0
    for src, dst, tier in pairs:
        conv = repro.get_conversion(src, dst, backend=tier)
        if tier != "c":
            lines += len(conv.source.splitlines())
        if tier == "numpy" and conv.vector_stats:
            vectorized += conv.vector_stats["vectorized_nests"]
            nests += (conv.vector_stats["vectorized_nests"]
                      + conv.vector_stats["scalar_nests"])

    cold, disk = [], []
    for src, dst, tier in pairs:
        clear_memo()
        memo.clear_all()
        seconds, _ = _timed(repro.synthesize, repro.get_format(src),
                            repro.get_format(dst), backend=tier)
        cold.append(seconds)
    for src, dst, tier in pairs:
        clear_memo()
        seconds, _ = _timed(repro.get_conversion, src, dst, backend=tier)
        disk.append(seconds)
    for src, dst, tier in pairs:  # leave the memo warm again
        repro.get_conversion(src, dst, backend=tier)

    compile_ms = []
    c_pairs = [(s, d) for s, d, t in pairs if t == "c"]
    if c_pairs:
        saved = os.environ["REPRO_CBACKEND_DIR"]
        with tempfile.TemporaryDirectory(dir=os.environ["TMPDIR"]) as fresh:
            os.environ["REPRO_CBACKEND_DIR"] = fresh
            try:
                for src, dst in c_pairs:
                    conv = repro.get_conversion(src, dst, backend="c")
                    args = _tiny_args(conv, src)
                    if args is None:
                        continue
                    c_backend.clear_lib_memo()
                    first, _ = _timed(conv.run_native, **args)
                    warm, _ = _timed(conv.run_native, **args)
                    compile_ms.append((first - warm) * 1e3)
            finally:
                os.environ["REPRO_CBACKEND_DIR"] = saved
                c_backend.clear_lib_memo()
    return {
        "synthesis.source_lines": lines,
        "backends.numpy_vector_frac": vectorized / nests if nests else 0.0,
        "synthesis.cold_ms": measure.median(cold) * 1e3,
        "synthesis.disk_load_ms": measure.median(disk) * 1e3,
        "backends.c_compile_ms": measure.median(compile_ms),
    }


def _tiny_args(conv, src: str):
    """Inspector arguments from a tiny container of format ``src``."""
    import repro
    from repro.datagen import matrices as M

    coo = M.random_uniform(32, 32, 64, seed=7)
    name = src.upper()
    if name == "COO":
        container = M.shuffled(coo, seed=7)
    elif name == "SCOO":
        container = coo
    elif name == "CSR":
        container = inputs.csr_of_sorted(coo)
    else:
        return None
    env = repro.container_to_env(container)
    return {p: env[p] for p in conv.params}


def uniform_input(ops, seed: int):
    """convert-large's uniform input: reused when the ops hold it, else
    generated from the seed."""
    for op in ops:
        if op.label.startswith("uniform"):
            return op.container
    return inputs.uniform_coo(seed)


def baselines_probe(uniform) -> dict:
    """The paper's Fig 2 comparators on convert-large's uniform input:
    COO->CSR plus COO->CSC, median of three, against the fastest tier of
    ``repro.convert`` on the same two pairs."""
    import repro
    from repro.baselines import REGISTRY

    import check

    ref = check.reference(uniform.nrows, uniform.ncols, uniform.row,
                          uniform.col, uniform.val)

    def cost(fn, dst) -> float:
        runs = []
        for _ in range(3):
            gc.collect()
            seconds, out = _timed(fn, uniform)
            if not check.check_container(out, dst, ref).ok:
                raise RuntimeError(f"{fn.__module__} {dst} output is wrong")
            runs.append(seconds)
        return measure.median(runs)

    values = {}
    for lib in ("taco", "sparskit", "mkl"):
        values[f"baselines.{lib}_style_ms"] = 1e3 * (
            cost(REGISTRY[("COO_CSR", lib)], "CSR")
            + cost(REGISTRY[("COO_CSC", lib)], "CSC"))
    synth = min(
        cost(lambda m, t=tier: repro.convert(m, "CSR", backend=t), "CSR")
        + cost(lambda m, t=tier: repro.convert(m, "CSC", backend=t), "CSC")
        for tier in inputs.TIERS
    )
    best = min(values.values()) / 1e3
    values["baselines.synth_over_best_ratio"] = synth / best
    return values

"""Statistics and spans the benchmark records around public calls.

Nothing here imports ``repro``: the orchestrator, the workload children
and the tests all share these helpers.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Candidate percentiles for ``op_tail_ms``, lowest first.  Each step
#: needs five to ten times the samples of the one below (40, 200, 2000),
#: so run-to-run changes in machine speed, which move the sample count of
#: a timed run, rarely move the percentile.
TAIL_LADDER = (50.0, 75.0, 95.0, 99.5)
#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(ordered: list[float], pct: float) -> tuple[float, int]:
    """The nearest-rank ``pct`` percentile of sorted samples.

    Returns the value and the number of samples ranked beyond it.
    """
    n = len(ordered)
    # Rounded first so that, e.g., 90% of 100 is rank 90, not 91.
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return ordered[rank - 1], n - rank


def tail(samples: list[float]) -> dict:
    """The highest ladder percentile with >= 10 samples beyond it.

    Falls back to the median when there are too few samples for any
    percentile to qualify.
    """
    ordered = sorted(samples)
    chosen = (TAIL_LADDER[0], *nearest_rank(ordered, TAIL_LADDER[0]))
    for pct in TAIL_LADDER[1:]:
        value, beyond = nearest_rank(ordered, pct)
        if beyond < TAIL_MIN_BEYOND:
            break
        chosen = (pct, value, beyond)
    pct, value, beyond = chosen
    return {"percentile": pct, "value": value, "beyond": beyond,
            "samples": len(ordered)}


def last_round(spent: float, rounds: int, seconds: float) -> bool:
    """Whether a loop of whole rounds should stop after ``rounds``.

    It stops at the round boundary nearest to ``seconds``, judging the
    next round to last as long as the average one so far.
    """
    return spent + spent / rounds / 2 >= seconds


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Machine-speed control
# ----------------------------------------------------------------------
#: Median seconds of one calibration slice on the reference machine, a
#: 2-vCPU Intel Xeon VM at 2.0 GHz.  Timings are reported at its speed.
REFERENCE_SLICE_S = 0.011
#: A timing is scaled by the calibration slices taken within this many
#: seconds of it.
SPEED_WINDOW_S = 5.0

_SLICE_KEYS = []


def calibration_slice() -> float:
    """Seconds that one fixed slice of the benchmark's own work takes now.

    The slice mixes interpreter work (a list, a sort, a dict) with numpy
    array work (argsort, bincount, cumsum), the two kinds of work the
    ops do.  Its inputs are fixed, not seeded, and it calls nothing in
    the package, so it is the same work in every run and against every
    version of the program.
    """
    import numpy as np

    if not _SLICE_KEYS:
        rng = np.random.default_rng(0)
        _SLICE_KEYS.append(rng.integers(0, 1 << 20, size=30_000))
    keys = _SLICE_KEYS[0]
    # The collector stays off: a collection's cost grows with the
    # process's heap, which would make the slice read the heap, not the
    # machine.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rows = [(k * 7919) % 20011 for k in range(7_500)]
        index: dict[int, list[int]] = {}
        for r, i in sorted(zip(rows, range(len(rows)))):
            index.setdefault(r, []).append(i)
        order = np.argsort(keys, kind="stable")
        np.cumsum(np.bincount(keys[order] & 4095, minlength=4096))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class MachineSpeed:
    """Calibration slices taken between ops, and the scale they give.

    The shared host's speed drifts by tens of percent over tens of
    seconds, and every op of a run moves with it.  A timing taken at
    ``t`` is multiplied by ``REFERENCE_SLICE_S`` over the median slice
    taken within ``SPEED_WINDOW_S`` of ``t``: it is expressed at the
    reference machine's speed, and a change in the program still moves
    it one for one.
    """

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            at = time.perf_counter()
            self.seconds.append(calibration_slice())
            self.at.append(at)

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, t + SPEED_WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return REFERENCE_SLICE_S / statistics.median(near)

    def overall(self) -> float:
        """The scale of the whole run's slices."""
        return REFERENCE_SLICE_S / statistics.median(self.seconds)

    def summary(self) -> dict:
        return {"slices": len(self.seconds),
                "median_slice_ms": median(self.seconds) * 1e3}


def peak_rss_mib(pid) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for process {pid}")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    index: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans with parent links and a shared operation id.

    Spans are opened around calls into the program from the benchmark's
    own code; they stay in memory until the run writes them out.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._kids: dict[int | None, list[Span]] = {}
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.op,
                      len(self.spans), dict(attrs))
        self.spans.append(record)
        self._kids.setdefault(parent, []).append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def children(self, index: int) -> list[Span]:
        return self._kids.get(index, [])

    def descendants(self, index: int) -> list[Span]:
        found, frontier = [], [index]
        while frontier:
            kids = [k for i in frontier for k in self.children(i)]
            found.extend(kids)
            frontier = [k.index for k in kids]
        return found

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, "attrs": s.attrs}
            for s in self.spans
        ]


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of ``span`` minus the part its direct children cover.

    Children are clipped to the parent and overlapping children are
    counted once; grandchildren are already inside their parent child.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach, span.start)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return max(span.duration - covered, 0.0)


def self_times(recorder: SpanRecorder, root: Span) -> dict[str, float]:
    """Self time per span name, summed over ``root``'s descendants."""
    totals: dict[str, float] = {}
    for span in recorder.descendants(root.index):
        own = self_time(span, recorder.children(span.index))
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals

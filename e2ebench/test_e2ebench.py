"""Tests of the benchmark's own machinery.

Run from the root of the repository::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
from inproc import Ledger  # noqa: E402
from serve_small import verdicts  # noqa: E402


@pytest.fixture(scope="module")
def coo():
    from repro.datagen import matrices as M

    return M.random_uniform(30, 30, 120, seed=3)


@pytest.fixture(scope="module")
def ref(coo):
    return check.reference(coo.nrows, coo.ncols, coo.row, coo.col, coo.val)


# ----------------------------------------------------------------------
# The reference check
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dst", ["CSR", "CSC", "DIA", "BCSR2"])
def test_reference_accepts_converter_output(coo, ref, dst):
    import repro

    verdict = check.check_container(repro.convert(coo, dst), dst, ref)
    assert verdict.ok, verdict.reason


def test_reference_rejects_one_flipped_column(coo, ref):
    import repro

    csr = repro.convert(coo, "CSR")
    k = next(n for n in range(len(csr.col)) if csr.col[n] + 1 < csr.ncols)
    csr.col[k] += 1
    verdict = check.check_container(csr, "CSR", ref)
    assert not verdict.ok


def test_reference_rejects_changed_dia_value(coo, ref):
    import repro

    dia = repro.convert(coo, "DIA")
    k = next(n for n, v in enumerate(dia.data) if v != 0.0)
    dia.data[k] += 1.0
    assert not check.check_container(dia, "DIA", ref).ok


def test_padding_is_reported_not_failed(coo, ref):
    import repro

    bcsr = repro.convert(coo, "BCSR2")
    verdict = check.check_container(bcsr, "BCSR2", ref)
    assert verdict.ok and verdict.padded
    assert not check.check_container(repro.convert(coo, "CSR"), "CSR",
                                     ref).padded


def test_wrong_container_type_fails(coo, ref):
    import repro

    assert not check.check_container(repro.convert(coo, "CSC"), "CSR",
                                     ref).ok


def test_result_on_wrong_tier_fails():
    assert check.check_tier("c", "c").ok
    assert not check.check_tier("c", "numpy").ok
    ledger = Ledger()
    op = inputs.Op("x", None, "CSR", "c", source=_Sized(5))
    ledger.add(op, 0.01, [check.check_tier("c", "numpy"),
                          check.Verdict(True)])
    assert ledger.failed == 1


class _Sized:
    def __init__(self, n):
        self.val = [1.0] * n


# ----------------------------------------------------------------------
# serve-small verdicts
# ----------------------------------------------------------------------
def _reply(container, dst):
    from repro.serve.protocol import serialize_container

    return {"ok": True, "result": serialize_container(container, dst),
            "meta": {"backend": "python"}}


def test_malformed_request_answered_200_fails(coo):
    import repro

    bad = inputs.Op("malformed", coo, "CSR", "python", coo,
                    expect_error="DuplicateCoordinateError")
    body = _reply(repro.convert(coo, "CSR"), "CSR")
    found = verdicts(bad, 200, body)
    assert not all(v.ok for v in found)
    ledger = Ledger()
    ledger.add(bad, 0.01, found)
    assert ledger.failed == 1


def test_malformed_request_with_expected_400_passes(coo):
    bad = inputs.Op("malformed", coo, "CSR", "python", coo,
                    expect_error="BoundsError")
    body = {"ok": False, "error": {"type": "BoundsError", "message": "x"}}
    assert all(v.ok for v in verdicts(bad, 400, body))
    other = {"ok": False, "error": {"type": "ShapeError", "message": "x"}}
    assert not all(v.ok for v in verdicts(bad, 400, other))


@pytest.mark.parametrize("dst", list(inputs.SERVE_DSTS))
def test_valid_reply_passes_and_wrong_tier_fails(coo, ref, dst):
    import repro

    op = inputs.Op("ok", coo, dst, "python", coo, ref=ref)
    body = _reply(repro.convert(coo, dst), dst)
    assert all(v.ok for v in verdicts(op, 200, body))
    body["meta"]["backend"] = "numpy"
    assert not all(v.ok for v in verdicts(op, 200, body))


@pytest.mark.parametrize("seed", range(1, 11))
def test_each_malformed_request_has_its_own_defect(seed):
    from repro import ValidationError
    from repro.verify import gate

    malformed = [op for op in inputs.serve_small(seed, scale=0.05)
                 if op.expect_error]
    assert len(malformed) == inputs.SERVE_MALFORMED
    for op in malformed:
        with pytest.raises(ValidationError) as err:
            gate.check_input(op.container, level="inputs",
                             assume_sorted=True)
        assert type(err.value).__name__ == op.expect_error


# ----------------------------------------------------------------------
# The tail rule and span self time
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, pct, value, beyond", [
    (199, 75.0, 150.0, 49),
    (40, 75.0, 30.0, 10),
    (39, 50.0, 20.0, 19),
    (200, 95.0, 190.0, 10),
    (2000, 99.5, 1990.0, 10),
    (12, 50.0, 6.0, 6),
])
def test_tail_percentile_and_count(n, pct, value, beyond):
    samples = [float(x) for x in range(n, 0, -1)]
    tail = measure.tail(samples)
    assert (tail["percentile"], tail["value"], tail["beyond"],
            tail["samples"]) == (pct, value, beyond, n)


class _RejectingClient:
    """Answers every request with the 400 its op expects, and records
    whether a check ever ran while a request was in flight."""

    def __init__(self):
        self.in_flight = 0
        self.overlapped = False

    def convert(self, container, dst, **kwargs):
        from repro.serve.client import ServeError

        self.in_flight += 1
        try:
            time.sleep(0.002)
            raise ServeError(400, {"ok": False, "error": {
                "type": container.expect_error, "message": "x"}})
        finally:
            self.in_flight -= 1


def test_serve_loop_runs_whole_rounds_and_checks_between_them(
        monkeypatch):
    import random

    import serve_small

    client = _RejectingClient()
    ops = []
    for k in range(6):
        op = inputs.Op(f"bad{k}", None, "CSR", "python", _Sized(3),
                       expect_error="BoundsError")
        op.container = op
        ops.append(op)
    checked = serve_small.verdicts

    def watched(op, status, body):
        client.overlapped |= client.in_flight > 0
        return checked(op, status, body)

    monkeypatch.setattr(serve_small, "verdicts", watched)
    ledger = Ledger()
    speed = measure.MachineSpeed()
    walls, shed = serve_small.closed_loop(client, ops, 0.05,
                                          random.Random(1), ledger, speed)
    assert len(ledger.latency) == len(walls) * len(ops)
    assert ledger.failed == 0 and shed == 0
    assert not client.overlapped
    assert len(speed.seconds) == len(walls) * serve_small.SLICES_PER_ROUND
    assert serve_small.loop_seconds(walls) == pytest.approx(
        sum(w for _, w in walls))


# ----------------------------------------------------------------------
# The machine-speed control
# ----------------------------------------------------------------------
def _speed(at, seconds):
    speed = measure.MachineSpeed()
    speed.at, speed.seconds = list(at), list(seconds)
    return speed


def test_scale_uses_the_slices_near_the_timing():
    ref = measure.REFERENCE_SLICE_S
    w = measure.SPEED_WINDOW_S
    # A machine at reference speed, then one at half speed, far apart.
    speed = _speed([0.0, 1.0, 2.0, 100.0, 101.0, 102.0],
                   [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref])
    assert speed.scale(1.0) == pytest.approx(1.0)
    assert speed.scale(101.0) == pytest.approx(0.5)
    # Outside every window the whole run's median is used.
    assert speed.scale(50.0) == pytest.approx(speed.overall())
    assert speed.scale(2.0 + w) == pytest.approx(1.0)


def test_ledger_scales_each_op_by_its_own_window():
    ref = measure.REFERENCE_SLICE_S
    speed = _speed([0.0, 100.0], [ref, 2 * ref])
    ledger = Ledger()
    op = inputs.Op("x", None, "CSR", "python", source=_Sized(1000))
    ledger.add(op, 0.010, [check.Verdict(True)], at=0.5)
    ledger.add(op, 0.020, [check.Verdict(True)], at=100.5)
    # Twice the time on a machine running at half speed: the same op.
    assert ledger.scaled(speed) == pytest.approx([0.010, 0.010])
    assert ledger.scaled() == [0.010, 0.020]
    scaled = ledger.end_to_end(speed=speed)["metrics"]
    assert scaled["op_p50_ms"]["value"] == pytest.approx(10.0)
    assert scaled["ops_per_s"]["value"] == pytest.approx(100.0)
    assert scaled["python.nnz_per_s"]["value"] == pytest.approx(1e5)


def test_calibration_slice_ignores_the_collector_state():
    import gc

    assert gc.isenabled()
    assert measure.calibration_slice() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        measure.calibration_slice()
        assert not gc.isenabled()
    finally:
        gc.enable()


def _span(name, start, end, parent, index):
    return measure.Span(name, start, end, parent, 0, index)


def test_self_time_with_nested_children():
    rec = measure.SpanRecorder()
    spans = [
        _span("root", 0.0, 10.0, None, 0),
        _span("a", 1.0, 4.0, 0, 1),
        _span("a.inner", 2.0, 3.0, 1, 2),
        _span("b", 5.0, 8.0, 0, 3),
    ]
    for s in spans:
        rec.spans.append(s)
        rec._kids.setdefault(s.parent, []).append(s)
    root, a, inner, b = spans
    assert measure.self_time(root, rec.children(0)) == pytest.approx(4.0)
    assert measure.self_time(a, rec.children(1)) == pytest.approx(2.0)
    assert measure.self_time(inner, []) == pytest.approx(1.0)
    totals = measure.self_times(rec, root)
    assert totals == pytest.approx({"a": 2.0, "a.inner": 1.0, "b": 3.0})
    assert sum(totals.values()) + 4.0 == pytest.approx(root.duration)


def test_self_time_counts_overlap_once_and_clips():
    parent = _span("p", 0.0, 10.0, None, 0)
    kids = [_span("x", 1.0, 4.0, 0, 1), _span("y", 3.0, 6.0, 0, 2),
            _span("z", 9.0, 12.0, 0, 3)]
    assert measure.self_time(parent, kids) == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_links_parents_and_ops():
    rec = measure.SpanRecorder()
    rec.op = 7
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            pass
    assert inner.parent == outer.index and outer.parent is None
    assert {s.op for s in rec.spans} == {7}
    assert [s.name for s in rec.descendants(outer.index)] == ["inner"]


# ----------------------------------------------------------------------
# The contract in BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER
    names = {m["name"] for m in spec["end_to_end"]}
    ledger = Ledger()
    op = inputs.Op("x", None, "CSR", "python", source=_Sized(5))
    ledger.add(op, 0.01, [check.Verdict(True)])
    emitted = set(ledger.end_to_end()["metrics"])
    assert names == emitted | {"peak_rss_mib", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)

"""Tests for the conversion amortization analysis."""

import math

import pytest

from repro.datagen import banded, stencil_offsets
from repro.evalharness import (
    Amortization,
    amortization_report,
    measure_amortization,
)


@pytest.fixture(scope="module")
def matrix():
    return banded(150, 150, stencil_offsets(5, spread=13), seed=4)


class TestAmortizationMath:
    def make(self, convert_s, src_s, dst_s):
        gain = src_s - dst_s
        return Amortization(
            "SCOO", "CSR", "spmv", convert_s, src_s, dst_s,
            convert_s / gain if gain > 0 else math.inf,
        )

    def test_breakeven_crossover(self):
        a = self.make(convert_s=10.0, src_s=3.0, dst_s=1.0)
        assert a.breakeven == pytest.approx(5.0)
        assert a.plan(4) == "stay"
        assert a.plan(6) == "convert"

    def test_never_pays_off(self):
        a = self.make(convert_s=10.0, src_s=1.0, dst_s=2.0)
        assert math.isinf(a.breakeven)
        assert a.plan(10_000) == "stay"

    def test_total_cost(self):
        a = self.make(convert_s=10.0, src_s=3.0, dst_s=1.0)
        assert a.total_cost(6, "convert") == pytest.approx(16.0)
        assert a.total_cost(6, "stay") == pytest.approx(18.0)
        assert a.total_cost(6) == pytest.approx(16.0)  # picks the cheaper


class TestMeasurement:
    def test_measures_positive_times(self, matrix):
        a = measure_amortization(matrix, "CSR", repeats=1)
        assert a.convert_s > 0
        assert a.kernel_src_s > 0
        assert a.kernel_dst_s > 0
        assert a.src_format == "SCOO"
        assert a.dst_format == "CSR"

    def test_csr_spmv_beats_coo_spmv(self):
        # CSR SpMV reads no row index per nonzero, only a row pointer per
        # row; with long rows (~100 nonzeros each) that saving outweighs
        # CSR's per-row loop, so conversion must pay off for *some*
        # finite repetition count.  On short rows the two interpreted
        # kernels cost about the same.
        long_rows = banded(40, 400, range(101), seed=4)
        a = measure_amortization(long_rows, "CSR", repeats=2)
        assert math.isfinite(a.breakeven)

    def test_report_renders(self, matrix):
        text = amortization_report(matrix, destinations=("CSR",), repeats=1)
        assert "SCOO->CSR" in text
        assert "breakeven_reps" in text

    def test_value_sum_kernel(self, matrix):
        a = measure_amortization(matrix, "CSR", kernel="value_sum",
                                 repeats=1)
        assert a.kernel == "value_sum"

"""Seeded workload inputs, built from ``repro.datagen`` and numpy only.

Each workload is a fixed list of operations (input, destination, tier);
one round runs every operation once.  Sizes are chosen so that every
operation of a workload costs within a small factor of the others, which
keeps ``op_tail_ms`` a reading of the workload rather than of its single
slowest pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TIERS = ("python", "numpy", "c")


@dataclass
class Op:
    """One operation of a workload."""

    label: str
    container: object
    dst: str
    tier: str
    #: The COO the container was made from; the reference is built from it.
    source: object
    assume_sorted: bool = True
    #: serve-small only: the typed error a malformed request must get.
    expect_error: str = ""
    #: Set by :func:`attach_references`, outside any timed region.
    ref: object = None

    @property
    def nnz(self) -> int:
        return len(self.source.val)


def attach_references(ops: list[Op]) -> None:
    """Give every op the scipy reference of its source matrix."""
    from check import reference

    refs: dict[int, object] = {}
    for op in ops:
        coo = op.source
        if op.expect_error:
            continue
        if id(coo) not in refs:
            refs[id(coo)] = reference(coo.nrows, coo.ncols, coo.row,
                                      coo.col, coo.val)
        op.ref = refs[id(coo)]


def csr_of_sorted(coo):
    """A CSRMatrix of a row-major sorted COO, by numpy index arithmetic.

    The row pointer is the running count of entries per row; the column
    and value arrays are the COO's own, already in row-major order.
    """
    import numpy as np

    from repro import CSRMatrix

    counts = np.bincount(np.asarray(coo.row, dtype=np.int64),
                         minlength=coo.nrows)
    rowptr = np.concatenate(([0], np.cumsum(counts)))
    return CSRMatrix(coo.nrows, coo.ncols, rowptr.tolist(), coo.col,
                     coo.val)


# ----------------------------------------------------------------------
# convert-large: in-process repro.convert on a handful of large inputs.
# ----------------------------------------------------------------------
def uniform_coo(seed: int, scale: float = 1.0):
    """convert-large's uniformly scattered input."""
    from repro.datagen import matrices as M

    n = max(64, int(20_000 * scale))
    return M.random_uniform(n, n, max(64, int(70_000 * scale)), seed=seed)


def convert_large_matrices(seed: int, scale: float = 1.0) -> list[tuple]:
    """(label, COO, dst, assume_sorted) for every pair of the workload."""
    from repro.datagen import matrices as M

    uniform = uniform_coo(seed, scale)
    n = uniform.nrows
    shuffled = M.shuffled(uniform, seed=seed + 1)
    fem = M.fem_blocks(max(48, int(1_050 * scale)), seed=seed + 2)
    band = M.banded(n, n, M.stencil_offsets(5, spread=max(2, int(n**0.5))),
                    seed=seed + 3)
    return [
        ("uniform", uniform, "CSR", True),
        ("uniform", uniform, "CSC", True),
        ("shuffled", shuffled, "CSR", False),
        ("fem_blocks", fem, "BCSR2", True),
        ("banded", band, "DIA", True),
    ]


def convert_large(seed: int, scale: float = 1.0) -> list[Op]:
    return [
        Op(f"{label}->{dst}", coo, dst, tier, coo, assume_sorted)
        for label, coo, dst, assume_sorted in convert_large_matrices(seed,
                                                                     scale)
        for tier in TIERS
    ]


# ----------------------------------------------------------------------
# plan-route: convert_via_plan(matrix_aware=True) on Table 3 stand-ins.
# ----------------------------------------------------------------------
#: (Table 3 name, scale, destinations).  DIA is asked of the banded
#: family only: DIA on scattered input has unbounded padding and no
#: admission budget rejects it yet.
PLAN_INPUTS = (
    ("jnlbrng1", 0.19, ("BCSR2", "CSC", "DIA")),
    ("rma10", 0.06, ("BCSR2", "CSC")),
    ("scircuit", 0.038, ("BCSR2", "CSC")),
)


def plan_route(seed: int, scale: float = 1.0) -> list[Op]:
    """Each stand-in as a sorted COO and as a CSR container.

    The CSR sources give multi-hop routes (CSR -> COO -> BCSR2/DIA on
    some tiers); DIA and BCSR2 destinations carry padding.
    """
    from repro.datagen import suitesparse

    ops = []
    for name, size, dsts in PLAN_INPUTS:
        coo = suitesparse.load(name, scale=size * scale, seed=seed)
        for src, container in (("COO", coo), ("CSR", csr_of_sorted(coo))):
            for dst in dsts:
                for tier in TIERS:
                    ops.append(Op(f"{name}:{src}->{dst}", container, dst,
                                  tier, coo))
    return ops


# ----------------------------------------------------------------------
# serve-small: small COO requests to a daemon, ~1 in 10 malformed.
# ----------------------------------------------------------------------
SERVE_DSTS = ("CSR", "CSC", "BCSR2")
#: Request sizes (nonzeros) are spread evenly over this range.
SERVE_NNZ = (2_000, 5_000)
#: Distinct valid requests per round; each gets every (dst, tier).
SERVE_VALID = 4
#: Malformed requests per round: 4 among 4 * 9 valid, one in ten.
SERVE_MALFORMED = 4
MALFORMED = ("UnsortedInputError", "DuplicateCoordinateError",
             "BoundsError")


def _malformed(coo, kind: str, rng: random.Random):
    """A copy of ``coo`` broken in the way ``kind`` names."""
    from repro import COOMatrix

    row, col, val = list(coo.row), list(coo.col), list(coo.val)
    if kind == "UnsortedInputError":
        # Coordinates are distinct and sorted, so swapping two adjacent
        # entries always breaks the order.
        k = rng.randrange(1, len(row))
        row[k - 1], row[k] = row[k], row[k - 1]
        col[k - 1], col[k] = col[k], col[k - 1]
    elif kind == "DuplicateCoordinateError":
        row.append(row[-1])
        col.append(col[-1])
        val.append(val[-1] + 1.0)
    else:
        col[rng.randrange(len(col))] = coo.ncols
    return COOMatrix(coo.nrows, coo.ncols, row, col, val)


def serve_small(seed: int, scale: float = 1.0) -> list[Op]:
    """One round: every valid request on every (dst, tier), plus one
    malformed request for every nine valid ones."""
    from repro.datagen import matrices as M

    rng = random.Random(seed)
    lo, hi = (max(16, int(x * scale)) for x in SERVE_NNZ)
    ops = []
    for k in range(SERVE_VALID):
        nnz = lo + (hi - lo) * k // (SERVE_VALID - 1)
        dim = max(8, int((nnz * 40) ** 0.5))
        coo = M.random_uniform(dim, dim, nnz, seed=seed * 100 + k)
        for dst in SERVE_DSTS:
            for tier in TIERS:
                ops.append(Op(f"nnz{nnz}->{dst}", coo, dst, tier, coo))
    valid = list(ops)
    for k in range(SERVE_MALFORMED):
        base = valid[rng.randrange(len(valid))]
        kind = MALFORMED[k % len(MALFORMED)]
        bad = _malformed(base.source, kind, rng)
        ops.append(Op(f"malformed:{kind}", bad, base.dst, base.tier, bad,
                      expect_error=kind))
    return ops


WORKLOADS = {
    "convert-large": convert_large,
    "plan-route": plan_route,
    "serve-small": serve_small,
}

#: Input scale of a set-up's first call: the workload's own operations
#: on the same families, small enough that the call costs little beyond
#: synthesis and compilation.
SETUP_SCALE = 0.02

"""Whole-array checks over parallel coordinate columns.

The COO-family containers store one Python list per dimension.  The
preconditions the synthesized inspectors rely on — integer coordinates,
in-bounds, no duplicates, lexicographic order — are checked here as numpy
passes over those columns, reproducing exactly the first error a
storage-order walk would report:

* at each position the walk tests bounds, then whether the coordinate was
  stored before, so the earlier of the first out-of-bounds position and
  the first repeated position wins (bounds on a tie);
* a repeat names the coordinate's first occurrence and the repeat;
* the first unsorted position is the first entry lexicographically
  smaller than its predecessor (equal neighbours are duplicates, not
  descents).

A strictly increasing column tuple is sorted and duplicate-free in one
O(nnz) pass; only otherwise is there a sort, over each coordinate's
row-major linear index (a ``lexsort`` of the columns when that index
would overflow int64), and a stable one only once a repeat is known.
"""

from __future__ import annotations

import array
import math
import numbers
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import NonIntegerCoordinateError

from .morton import morton, morton_vec

_INT64_MAX = 2**63 - 1


class Violation(NamedTuple):
    """The first bounds or duplicate error of a storage-order walk."""

    #: ``"bounds"`` or ``"duplicate"``.
    kind: str
    #: The out-of-bounds position, or the duplicate's repeat position.
    position: int
    #: For a duplicate, the coordinate's first position; else ``None``.
    first: int | None = None


def _integer_array(values) -> np.ndarray | None:
    """``values`` as int64 when every entry is an integer that fits it;
    ``None`` otherwise.  ``array("q")`` converts strictly: a float raises
    instead of truncating, a too-large integer overflows."""
    try:
        return np.frombuffer(array.array("q", values), dtype=np.int64)
    except (TypeError, OverflowError):
        return None


def _first_non_integer(values) -> int | None:
    for n, v in enumerate(values):
        if not isinstance(v, numbers.Integral):
            return n
    return None


def _integer_column(values) -> np.ndarray | int:
    """``values`` as an int64 array, or the position of a non-integer.

    A column holding integers outside int64 becomes an object array of
    Python ints: slower, but bounds, order and repeats stay exact.
    """
    arr = _integer_array(values)
    if arr is not None:
        return arr
    bad = _first_non_integer(values)
    if bad is not None:
        return bad
    return np.array(values, dtype=object)


def integer_columns(
    columns: Sequence, names: Sequence[str], *, container: str
) -> list[np.ndarray]:
    """Every column as an integer array (see :func:`_integer_column`);
    raises :class:`~repro.errors.NonIntegerCoordinateError` at the first
    coordinate that is not an integer (columns in order)."""
    arrays = []
    for values, name in zip(columns, names):
        arr = _integer_column(values)
        if isinstance(arr, int):
            raise NonIntegerCoordinateError(
                f"{name} coordinate {values[arr]!r} at position {arr} is "
                f"not an integer",
                value=values[arr],
                position=arr,
                container=container,
            )
        arrays.append(arr)
    return arrays


def _descents(arrays) -> tuple[np.ndarray, np.ndarray]:
    """Per adjacent pair: is the later tuple smaller, and are they equal."""
    pairs = max(len(arrays[0]) - 1, 0)
    less = np.zeros(pairs, dtype=bool)
    tied = np.ones(pairs, dtype=bool)
    for arr in arrays:
        prev, cur = arr[:-1], arr[1:]
        less |= tied & (cur < prev)
        tied &= cur == prev
    return less, tied


def check_columns(
    arrays: list[np.ndarray], dims
) -> tuple[Violation | None, int | None]:
    """The first out-of-bounds or repeated coordinate in walk order, and
    — when there is none — the first unsorted position (``None`` if the
    entries are sorted).  The order falls out of the adjacent-pair pass
    the repeat test makes anyway, so it costs no second scan."""
    nnz = len(arrays[0])
    outside = np.zeros(nnz, dtype=bool)
    for arr, dim in zip(arrays, dims):
        upper = max(int(dim), 0)
        outside |= arr < 0
        if upper <= _INT64_MAX or arr.dtype == object:
            outside |= arr >= upper
    hits = np.flatnonzero(outside)
    first_oob = int(hits[0]) if hits.size else nnz
    # A repeat counts only before the first out-of-bounds entry, and
    # every entry there is in bounds.
    head = [arr[:first_oob] for arr in arrays]
    less, tied = _descents(head)
    repeat = _first_repeat(head, dims, less, tied)
    if repeat is not None:
        return Violation("duplicate", repeat[1], repeat[0]), None
    if first_oob < nnz:
        return Violation("bounds", first_oob), None
    return None, _first_descent(less)


def _first_descent(less: np.ndarray) -> int | None:
    hits = np.flatnonzero(less)
    return int(hits[0]) + 1 if hits.size else None


def _first_repeat(arrays, dims, less, tied) -> tuple[int, int] | None:
    """``(first, n)`` for the smallest position ``n`` repeating an earlier
    coordinate first stored at ``first``; every entry is in bounds and
    ``less`` / ``tied`` are the columns' :func:`_descents`."""
    if not (less | tied).any():
        return None  # strictly increasing: sorted and duplicate-free
    if math.prod(int(d) for d in dims) <= _INT64_MAX:
        # In-bounds coordinates have a row-major linear index: one
        # int64 key, whose plain sort rules out repeats cheaply.
        key = arrays[0]
        for arr, dim in zip(arrays[1:], dims[1:]):
            key = key * int(dim) + arr
        ranked = np.sort(key)
        if not (ranked[1:] == ranked[:-1]).any():
            return None
        order = np.argsort(key, kind="stable")
        keys = [key]
    else:
        order = np.lexsort(arrays[::-1])  # stable, first column primary
        keys = arrays
    same = np.ones(len(order) - 1, dtype=bool)
    for arr in keys:
        ranked = arr[order]
        same &= ranked[1:] == ranked[:-1]
    if not same.any():
        return None
    # Within a run of equal coordinates the stable sort keeps storage
    # order, so each repeat's predecessor in ``order`` is its first
    # occurrence or an earlier repeat; the smallest repeat follows the
    # first occurrence directly.
    repeats = order[1:][same]
    k = int(np.argmin(repeats))
    return int(order[:-1][same][k]), int(repeats[k])


def _ordered_column(values) -> np.ndarray:
    """``values`` as an array whose ``<`` / ``==`` match Python's."""
    arr = _integer_array(values)
    if arr is not None:
        return arr
    return np.fromiter(values, dtype=object, count=len(values))


def first_unsorted(columns: Sequence) -> int | None:
    """Position of the first entry breaking lexicographic order.

    Like a walk over ``zip(*columns)``, columns of differing lengths are
    read up to the shortest.
    """
    nnz = min(len(c) for c in columns)
    if nnz < 2:
        return None
    if any(len(c) != nnz for c in columns):
        columns = [c[:nnz] for c in columns]
    less, _ = _descents([_ordered_column(c) for c in columns])
    return _first_descent(less)


def first_morton_descent(columns: Sequence) -> int | None:
    """Position of the first entry whose Morton key does not exceed its
    predecessor's (MCOO / MCOO3 order is strict); columns hold in-bounds,
    non-negative integers."""
    arrays = [_integer_array(c) for c in columns]
    if any(arr is None for arr in arrays):  # coordinates past int64
        keys = np.fromiter(map(morton, *columns), dtype=object,
                           count=len(columns[0]))
    else:
        keys = morton_vec(*arrays)
    hits = np.flatnonzero(keys[1:] <= keys[:-1])
    return int(hits[0]) + 1 if hits.size else None


__all__ = [
    "Violation",
    "check_columns",
    "first_morton_descent",
    "first_unsorted",
    "integer_columns",
]

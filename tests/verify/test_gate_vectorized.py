"""The vectorized COO-family input gate against scalar storage-order walks.

The storage-order walks below are the reference: the numpy checks in
:mod:`repro.runtime.coords` must raise the same exception class with the
same message and evidence (``.position`` / ``.coordinate`` /
``.positions``), and find the same first unsorted position, on randomly
corrupted inputs.  The rest of the file pins what rides on the gate:
non-integer coordinates rejected identically everywhere, and the
source's sortedness scanned at most once per call.
"""

import pytest

from repro import (
    BoundsError,
    COOMatrix,
    DuplicateCoordinateError,
    MortonCOOMatrix,
    MortonCOOTensor3D,
    NonIntegerCoordinateError,
    ShapeError,
    UnsortedInputError,
    container_format,
    container_to_env,
    convert,
    dense_equal,
)
from repro.planner import convert_via_plan
from repro.runtime import COOTensor3D, morton2, morton3

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TIERS = ("python", "numpy", "c")


# ----------------------------------------------------------------------
# Reference: per-nonzero storage-order walks.
# ----------------------------------------------------------------------
def reference_check_coo(m: COOMatrix) -> None:
    if not (len(m.row) == len(m.col) == len(m.val)):
        raise ShapeError(
            f"row/col/val lengths differ "
            f"({len(m.row)}/{len(m.col)}/{len(m.val)})",
            container=repr(m),
        )
    seen: dict = {}
    for n, (i, j) in enumerate(zip(m.row, m.col)):
        if not (0 <= i < m.nrows and 0 <= j < m.ncols):
            raise BoundsError(
                f"coordinate ({i}, {j}) at position {n} is outside "
                f"{m.nrows}x{m.ncols}",
                coordinate=(i, j),
                position=n,
                container=repr(m),
            )
        first = seen.setdefault((i, j), n)
        if first != n:
            raise DuplicateCoordinateError(
                f"coordinate ({i}, {j}) stored at positions {first} and {n}",
                coordinate=(i, j),
                positions=(first, n),
                container=repr(m),
            )


def reference_check_coo3d(t: COOTensor3D) -> None:
    if len({len(t.row), len(t.col), len(t.z), len(t.val)}) != 1:
        raise ShapeError(
            "coordinate/value arrays have differing lengths",
            container=repr(t),
        )
    seen: dict = {}
    for n, (i, j, k) in enumerate(zip(t.row, t.col, t.z)):
        if not (0 <= i < t.dims[0] and 0 <= j < t.dims[1]
                and 0 <= k < t.dims[2]):
            raise BoundsError(
                f"coordinate ({i}, {j}, {k}) at position {n} is outside "
                f"{t.dims}",
                coordinate=(i, j, k),
                position=n,
                container=repr(t),
            )
        first = seen.setdefault((i, j, k), n)
        if first != n:
            raise DuplicateCoordinateError(
                f"coordinate ({i}, {j}, {k}) stored at positions "
                f"{first} and {n}",
                coordinate=(i, j, k),
                positions=(first, n),
                container=repr(t),
            )


def reference_first_unsorted(columns) -> int | None:
    prev = None
    for n, entry in enumerate(zip(*columns)):
        if prev is not None and entry < prev:
            return n
        prev = entry
    return None


def _outcome(fn):
    """``(class, message, evidence)`` of what ``fn()`` raises, or
    ``("returned", value)``."""
    try:
        value = fn()
    except Exception as err:  # noqa: BLE001 - compared, not handled
        evidence = tuple(
            getattr(err, name, None)
            for name in ("position", "coordinate", "positions")
        )
        return type(err), str(err), evidence
    return "returned", value


def reference_check_and_find_unsorted(check, columns) -> int | None:
    check()
    return reference_first_unsorted(columns)


# ----------------------------------------------------------------------
# Strategies: small dims, coordinates that stray out of bounds, repeat,
# descend, and reach past int64.
# ----------------------------------------------------------------------
INT64_EDGES = (2**63 - 1, 2**63, 2**64, 2**70, -(2**63), -(2**63) - 1, -1)
coordinate = st.one_of(
    st.integers(0, 3), st.integers(-2, 6), st.sampled_from(INT64_EDGES)
)
dim = st.one_of(st.integers(0, 5),
                st.sampled_from((2**63 - 1, 2**63, 2**71)))


@st.composite
def corrupted_columns(draw, rank: int):
    """Coordinate columns plus dims: either fully random, or a sorted
    duplicate-free set with a few targeted corruptions applied."""
    dims = tuple(draw(dim) for _ in range(rank))
    if draw(st.booleans()):
        n = draw(st.integers(0, 10))
        entries = [tuple(draw(coordinate) for _ in range(rank))
                   for _ in range(n)]
    else:
        cells = draw(st.sets(
            st.tuples(*(st.integers(0, 4) for _ in range(rank))),
            max_size=10,
        ))
        entries = sorted(cells)
        for _ in range(draw(st.integers(0, 3))):
            if not entries:
                break
            k = draw(st.integers(0, len(entries) - 1))
            kind = draw(st.sampled_from(("dup", "swap", "oob", "edge")))
            if kind == "dup":
                entries.insert(draw(st.integers(0, len(entries))),
                               entries[k])
            elif kind == "swap" and k > 0:
                entries[k - 1], entries[k] = entries[k], entries[k - 1]
            elif kind == "oob":
                axis = draw(st.integers(0, rank - 1))
                bad = list(entries[k])
                bad[axis] = dims[axis] + draw(st.integers(0, 2))
                entries[k] = tuple(bad)
            elif kind == "edge":
                axis = draw(st.integers(0, rank - 1))
                bad = list(entries[k])
                bad[axis] = draw(st.sampled_from(INT64_EDGES))
                entries[k] = tuple(bad)
    columns = [[e[axis] for e in entries] for axis in range(rank)]
    return dims, columns


class TestOracle2D:
    @settings(max_examples=400, deadline=None)
    @given(corrupted_columns(2))
    def test_check_matches_scalar_walk(self, case):
        (nrows, ncols), (row, col) = case
        m = COOMatrix(nrows, ncols, row, col, [1.0] * len(row))
        assert _outcome(m.check) == _outcome(
            lambda: reference_check_coo(m))
        assert _outcome(m.check_and_find_unsorted) == _outcome(
            lambda: reference_check_and_find_unsorted(
                lambda: reference_check_coo(m), (row, col)))

    @settings(max_examples=400, deadline=None)
    @given(corrupted_columns(2))
    def test_first_unsorted_matches_scalar_walk(self, case):
        (nrows, ncols), (row, col) = case
        m = COOMatrix(nrows, ncols, row, col, [1.0] * len(row))
        assert m.first_unsorted_position() == reference_first_unsorted(
            (row, col))

    def test_length_mismatch(self):
        m = COOMatrix(3, 3, [0, 1], [0], [1.0, 2.0])
        assert _outcome(m.check) == _outcome(
            lambda: reference_check_coo(m))
        assert m.first_unsorted_position() == reference_first_unsorted(
            (m.row, m.col))

    def test_out_of_int64_is_bounds_not_overflow(self):
        m = COOMatrix(3, 3, [0, 2**64], [0, 1], [1.0, 2.0])
        with pytest.raises(BoundsError) as exc:
            m.check()
        assert exc.value.coordinate == (2**64, 1)
        assert exc.value.position == 1

    def test_bounds_before_later_duplicate_and_vice_versa(self):
        oob_first = COOMatrix(3, 3, [0, 9, 0], [0, 0, 0], [1.0] * 3)
        with pytest.raises(BoundsError):
            oob_first.check()
        dup_first = COOMatrix(3, 3, [0, 0, 9], [0, 0, 0], [1.0] * 3)
        with pytest.raises(DuplicateCoordinateError) as exc:
            dup_first.check()
        assert exc.value.positions == (0, 1)

    def test_earliest_repeat_wins_over_smallest_coordinate(self):
        m = COOMatrix(3, 3, [2, 2, 0, 0], [2, 2, 0, 0], [1.0] * 4)
        with pytest.raises(DuplicateCoordinateError) as exc:
            m.check()
        assert exc.value.positions == (0, 1)
        assert exc.value.coordinate == (2, 2)

    def test_triple_repeat_names_first_two(self):
        m = COOMatrix(3, 3, [1, 0, 1, 1], [1, 0, 1, 1], [1.0] * 4)
        with pytest.raises(DuplicateCoordinateError) as exc:
            m.check()
        assert exc.value.positions == (0, 2)


class TestOracle3D:
    @settings(max_examples=300, deadline=None)
    @given(corrupted_columns(3))
    def test_check_matches_scalar_walk(self, case):
        dims, (row, col, z) = case
        t = COOTensor3D(dims, row, col, z, [1.0] * len(row))
        assert _outcome(t.check) == _outcome(
            lambda: reference_check_coo3d(t))
        assert _outcome(t.check_and_find_unsorted) == _outcome(
            lambda: reference_check_and_find_unsorted(
                lambda: reference_check_coo3d(t), (row, col, z)))

    @settings(max_examples=300, deadline=None)
    @given(corrupted_columns(3))
    def test_first_unsorted_matches_scalar_walk(self, case):
        dims, (row, col, z) = case
        t = COOTensor3D(dims, row, col, z, [1.0] * len(row))
        assert t.first_unsorted_position() == reference_first_unsorted(
            (row, col, z))


def reference_morton_descent(columns, key) -> int | None:
    keys = [key(*t) for t in zip(*columns)]
    for n, (a, b) in enumerate(zip(keys, keys[1:]), start=1):
        if a >= b:
            return n
    return None


@st.composite
def morton_columns(draw, rank: int):
    """In-bounds coordinates, Morton-sorted or not, repeats allowed;
    magnitudes reach past a 62-bit interleaved key and past int64."""
    top = draw(st.sampled_from((5, 2**40, 2**70)))
    coord = st.one_of(st.integers(0, 5), st.integers(0, top))
    entries = draw(st.lists(st.tuples(*([coord] * rank)), max_size=10))
    key = morton2 if rank == 2 else morton3
    if draw(st.booleans()):
        entries.sort(key=lambda t: key(*t))
    dims = (top + 1,) * rank
    return dims, [[e[a] for e in entries] for a in range(rank)], key


class TestMortonOracle:
    @settings(max_examples=300, deadline=None)
    @given(morton_columns(2))
    def test_mcoo_check_matches_scalar_walk(self, case):
        (nrows, ncols), (row, col), key = case
        m = MortonCOOMatrix(nrows, ncols, row, col, [1.0] * len(row))
        expected = _outcome(lambda: reference_check_coo(m))
        if expected == ("returned", None):
            n = reference_morton_descent((row, col), key)
            if n is not None:
                expected = _outcome(lambda: _raise_unsorted(m, n))
        assert _outcome(m.check) == expected

    @settings(max_examples=300, deadline=None)
    @given(morton_columns(3))
    def test_mcoo3_check_matches_scalar_walk(self, case):
        dims, (row, col, z), key = case
        t = MortonCOOTensor3D(dims, row, col, z, [1.0] * len(row))
        expected = _outcome(lambda: reference_check_coo3d(t))
        if expected == ("returned", None):
            n = reference_morton_descent((row, col, z), key)
            if n is not None:
                expected = _outcome(lambda: _raise_unsorted(t, n))
        assert _outcome(t.check) == expected


def _raise_unsorted(container, n):
    raise UnsortedInputError(
        f"entries not in strictly increasing Morton order at position {n}",
        position=n,
        container=repr(container),
    )


# ----------------------------------------------------------------------
# Non-integer coordinates: one typed error on every tier and the daemon.
# ----------------------------------------------------------------------
def _fractional_row():
    return COOMatrix(3, 3, [0, 0.5, 2], [0, 1, 2], [1.0, 2.0, 3.0])


class TestNonIntegerCoordinates:
    @pytest.mark.parametrize("tier", TIERS)
    def test_fractional_row_rejected_on_every_tier(self, tier):
        with pytest.raises(NonIntegerCoordinateError) as exc:
            convert(_fractional_row(), "CSR", backend=tier)
        assert exc.value.position == 1
        assert exc.value.value == 0.5
        assert "row coordinate 0.5 at position 1" in str(exc.value)

    @pytest.mark.parametrize("tier", TIERS)
    def test_plan_route_rejects_too(self, tier):
        with pytest.raises(NonIntegerCoordinateError):
            convert_via_plan(_fractional_row(), "CSR", backend=tier)

    def test_integral_float_and_none_rejected(self):
        for col in ([0, 1.0, 2], [0, None, 2], [0, "1", 2]):
            m = COOMatrix(3, 3, [0, 1, 2], col, [1.0, 2.0, 3.0])
            with pytest.raises(NonIntegerCoordinateError) as exc:
                m.check()
            assert exc.value.position == 1
            assert "col coordinate" in str(exc.value)

    def test_tensor_rejects_fractional_z(self):
        t = COOTensor3D((2, 2, 2), [0, 1], [0, 1], [0, 1.5], [1.0, 2.0])
        with pytest.raises(NonIntegerCoordinateError) as exc:
            t.check()
        assert exc.value.position == 1

    def test_numpy_integers_accepted(self):
        import numpy as np

        m = COOMatrix(3, 3, list(np.arange(3)), [np.int32(1)] * 3,
                      [1.0, 2.0, 3.0])
        m.check()

    def test_daemon_answers_400(self):
        from repro.serve import ConversionServer, ServeClient, ServeError

        server = ConversionServer(port=0, workers=2).start_in_background()
        try:
            client = ServeClient(server.address)
            with pytest.raises(ServeError) as err:
                client.convert(_fractional_row(), "CSR")
        finally:
            server.shutdown()
        assert err.value.status == 400
        assert err.value.body["error"]["type"] == "NonIntegerCoordinateError"


# ----------------------------------------------------------------------
# Sortedness: scanned at most once per call, never by sorting.
# ----------------------------------------------------------------------
@pytest.fixture
def scans(monkeypatch):
    """Counts the passes that resolve a ``COOMatrix``'s order: the
    standalone ``first_unsorted_position`` scan and the gate's
    ``check_and_find_unsorted``."""
    calls = []
    for name in ("first_unsorted_position", "check_and_find_unsorted"):
        original = getattr(COOMatrix, name)

        def counted(matrix, _original=original):
            calls.append(matrix)
            return _original(matrix)

        monkeypatch.setattr(COOMatrix, name, counted)
    return calls


def _sorted_coo():
    return COOMatrix(4, 4, [0, 0, 1, 3], [1, 3, 2, 0], [1.0, 2.0, 3.0, 4.0])


class TestScanCount:
    @pytest.mark.parametrize("tier", TIERS)
    def test_convert_scans_once(self, scans, tier):
        coo = _sorted_coo()
        out = convert(coo, "CSR", backend=tier)
        assert dense_equal(out.to_dense(), coo.to_dense())
        assert len(scans) <= 1

    @pytest.mark.parametrize("tier", TIERS)
    def test_convert_via_plan_scans_once(self, scans, tier):
        coo = _sorted_coo()
        out = convert_via_plan(coo, "CSC", backend=tier, matrix_aware=True)
        assert dense_equal(out.to_dense(), coo.to_dense())
        assert len(scans) <= 1

    def test_unsorted_remedy_scans_never(self, scans):
        coo = COOMatrix(3, 3, [2, 0], [0, 2], [1.0, 2.0])
        convert(coo, "CSR", assume_sorted=False)
        assert scans == []

    def test_daemon_convert_scans_once(self, scans):
        from repro.serve import ConversionServer, ServeClient

        server = ConversionServer(port=0, workers=2).start_in_background()
        try:
            resp = ServeClient(server.address).convert(_sorted_coo(), "CSR")
        finally:
            server.shutdown()
        assert resp["ok"]
        assert len(scans) <= 1

    def test_container_to_env_never_scans(self, scans):
        env = container_to_env(_sorted_coo())
        assert env["row1"] == [0, 0, 1, 3]
        assert scans == []

    def test_detect_mode_binds_by_data(self, scans):
        sorted_coo = _sorted_coo()
        unsorted = COOMatrix(3, 3, [2, 0], [0, 2], [1.0, 2.0])
        for coo in (sorted_coo, unsorted):
            out = convert(coo, "CSR", assume_sorted=None)
            assert dense_equal(out.to_dense(), coo.to_dense())
        assert len(scans) == 2

    def test_tensor_sortedness_never_sorts(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sortedness must not sort the tensor")

        monkeypatch.setattr(COOTensor3D, "sorted_lexicographic", refuse)
        t = COOTensor3D((2, 2, 2), [0, 1], [0, 1], [0, 1], [1.0, 2.0])
        unsorted = COOTensor3D((2, 2, 2), [1, 0], [1, 0], [1, 0],
                               [2.0, 1.0])
        assert container_format(t) == "SCOO3D"
        assert container_format(unsorted) == "COO3D"
        assert container_to_env(t)["z1"] == [0, 1]
        out = convert(t, "MCOO3")
        assert out.to_dict() == t.to_dict()

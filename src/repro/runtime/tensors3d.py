"""3-D sparse tensor containers: COO3D and Morton-ordered COO3D (MCOO3).

These are the tensor-side counterparts of the matrix containers, used by the
Table 4 experiment (COO3D → MCOO3 reordering versus HiCOO's blocked
z-Morton sort).  Like the matrix containers they store Python lists; the
COO3D checks are numpy passes over them (:mod:`repro.runtime.coords`).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.errors import (
    BoundsError,
    DenseMismatchError,
    DuplicateCoordinateError,
    ShapeError,
    UnsortedInputError,
)

from .coords import (
    check_columns,
    first_morton_descent,
    first_unsorted,
    integer_columns,
)
from .morton import morton3


class _ValidatedTensor:
    """Shared validation surface for the 3-D containers.

    The dense reference for a sparse tensor is its coordinate map
    (``to_dict()``), not a materialized rank-3 array.
    """

    def check(self) -> None:  # pragma: no cover - every subclass overrides
        raise NotImplementedError

    def check_against_dense(
        self,
        reference: Mapping[tuple[int, int, int], float],
        *,
        tol: float = 0.0,
    ) -> None:
        """Validate invariants and compare ``to_dict()`` to ``reference``."""
        self.check()
        actual = self.to_dict()
        for coord in set(actual) | set(reference):
            x = actual.get(coord, 0.0)
            y = reference.get(coord, 0.0)
            if abs(x - y) > tol:
                raise DenseMismatchError(
                    f"coordinate map differs at {coord}: stored {x!r}, "
                    f"reference {y!r}",
                    coordinate=coord,
                    expected=y,
                    actual=x,
                    container=repr(self),
                )


class COOTensor3D(_ValidatedTensor):
    """3-D coordinate format with parallel ``row`` / ``col`` / ``z`` arrays.

    Mode names follow the paper's COO3D descriptor: ``row_1``, ``col_1`` and
    ``z_1`` give the dense coordinate of position ``n``.
    """

    format_name = "COO3D"

    def __init__(
        self,
        dims: tuple[int, int, int],
        row: Sequence[int],
        col: Sequence[int],
        z: Sequence[int],
        val: Sequence[float],
    ):
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        self.row = list(row)
        self.col = list(col)
        self.z = list(z)
        self.val = list(val)

    @property
    def nnz(self) -> int:
        return len(self.val)

    def check(self) -> None:
        self._check_coordinates()

    def check_and_find_unsorted(self) -> int | None:
        """:meth:`check`, returning :meth:`first_unsorted_position` from
        the same pass over the coordinates."""
        return self._check_coordinates()

    def _check_coordinates(self) -> int | None:
        lengths = {len(self.row), len(self.col), len(self.z), len(self.val)}
        if len(lengths) != 1:
            raise ShapeError(
                "coordinate/value arrays have differing lengths",
                container=repr(self),
            )
        arrays = integer_columns(
            (self.row, self.col, self.z),
            ("row", "col", "z"),
            container=repr(self),
        )
        violation, unsorted = check_columns(arrays, self.dims)
        if violation is None:
            return unsorted
        n = violation.position
        i, j, k = self.row[n], self.col[n], self.z[n]
        if violation.kind == "bounds":
            raise BoundsError(
                f"coordinate ({i}, {j}, {k}) at position {n} is outside "
                f"{self.dims}",
                coordinate=(i, j, k),
                position=n,
                container=repr(self),
            )
        raise DuplicateCoordinateError(
            f"coordinate ({i}, {j}, {k}) stored at positions "
            f"{violation.first} and {n}",
            coordinate=(i, j, k),
            positions=(violation.first, n),
            container=repr(self),
        )

    def nonzeros(self) -> Iterator[tuple[int, int, int, float]]:
        return zip(self.row, self.col, self.z, self.val)

    def to_dict(self) -> dict[tuple[int, int, int], float]:
        """Coordinate -> value map (the dense reference for correctness)."""
        return {
            (i, j, k): v for i, j, k, v in self.nonzeros()
        }

    def first_unsorted_position(self) -> int | None:
        """Position of the first entry breaking lexicographic order."""
        return first_unsorted((self.row, self.col, self.z))

    def is_sorted_lexicographic(self) -> bool:
        return self.first_unsorted_position() is None

    def sorted_lexicographic(self) -> "COOTensor3D":
        order = sorted(
            range(self.nnz),
            key=lambda n: (self.row[n], self.col[n], self.z[n]),
        )
        return COOTensor3D(
            self.dims,
            [self.row[n] for n in order],
            [self.col[n] for n in order],
            [self.z[n] for n in order],
            [self.val[n] for n in order],
        )

    def __repr__(self):
        return f"COOTensor3D({self.dims}, nnz={self.nnz})"


class MortonCOOTensor3D(COOTensor3D):
    """COO3D sorted by the 3-D Morton key — the paper's MCOO3."""

    format_name = "MCOO3"

    def check(self) -> None:
        super().check()
        n = first_morton_descent((self.row, self.col, self.z))
        if n is not None:
            raise UnsortedInputError(
                f"entries not in strictly increasing Morton order at "
                f"position {n}",
                position=n,
                container=repr(self),
            )

    @classmethod
    def from_coo(cls, coo: COOTensor3D) -> "MortonCOOTensor3D":
        order = sorted(
            range(coo.nnz),
            key=lambda n: morton3(coo.row[n], coo.col[n], coo.z[n]),
        )
        return cls(
            coo.dims,
            [coo.row[n] for n in order],
            [coo.col[n] for n in order],
            [coo.z[n] for n in order],
            [coo.val[n] for n in order],
        )

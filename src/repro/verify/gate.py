"""The runtime validation gate at the ``convert`` boundary.

The synthesized inspectors are correct *given their preconditions*: index
arrays in bounds, no duplicate coordinates, and — for the sorted formats —
the promised ordering.  Historically nothing enforced those preconditions,
so a malformed container flowed through ``convert()`` and came out as a
silently corrupt result (or a bare ``IndexError`` from deep inside
generated code).  This module is the enforcement point:

* ``validate="off"``     — trust the caller entirely (benchmark mode),
* ``validate="inputs"``  — run the source container's :meth:`check` plus
  the ``assume_sorted`` monotonicity precondition (the default),
* ``validate="full"``    — additionally :meth:`check` the converted
  output and compare its dense image against the source's.

:func:`admit` is the entry points' form of the input gate: it also names
the source descriptor from the order the check found, so a conversion
needs no separate sortedness scan.

Costs: for COO and COO3D sources ``"inputs"`` is whole-array numpy work
(:mod:`repro.runtime.coords`): one list-to-array copy per coordinate
column, O(nnz) bounds masks and adjacent-pair comparisons, plus an
O(nnz log nnz) sort only when the entries are not strictly increasing;
the first unsorted position falls out of the same adjacent-pair pass.
Other containers' checks are O(nnz) Python walks.  ``"full"`` adds an
O(nrows * ncols) dense materialization per conversion for matrices
(coordinate-map comparison for 3-D tensors), so reserve it for debugging
and the differential fuzzer.
"""

from __future__ import annotations

from repro.errors import UnsortedInputError, ValidationError

VALIDATE_LEVELS = ("off", "inputs", "full")


def _record_rejection(err: ValidationError, where: str) -> None:
    """Count a gate rejection by ``ValidationError`` subclass and site."""
    import repro.obs as obs

    obs.METRICS.counter(
        "repro_gate_rejections", "validation-gate rejections"
    ).inc(error=type(err).__name__, where=where)


def _record_check(where: str) -> None:
    import repro.obs as obs

    obs.METRICS.counter(
        "repro_gate_checks", "validation-gate checks run"
    ).inc(where=where)


def normalize_level(level: str | None) -> str:
    """Validate and canonicalize a ``validate=`` argument."""
    if level is None:
        return "off"
    if level is False:  # tolerate validate=False for validate="off"
        return "off"
    name = str(level).lower()
    if name not in VALIDATE_LEVELS:
        raise ValueError(
            f"validate must be one of {VALIDATE_LEVELS}, got {level!r}"
        )
    return name


def check_input(container, *, level: str = "inputs",
                assume_sorted: bool | None = True) -> bool:
    """Gate a source container before it reaches a synthesized inspector.

    Runs the container's structural :meth:`check` (integer coordinates,
    bounds, duplicates, pointer invariants) and, for plain COO containers
    under ``assume_sorted=True``, the lexicographic monotonicity scan the
    sorted descriptors rely on.  Raises a
    :class:`~repro.errors.ValidationError` subclass naming the offending
    coordinate or position; does nothing at ``level="off"``.
    ``assume_sorted=None`` runs the scan without requiring sorted input.

    Returns whether the scan found the entries sorted (``False`` when no
    scan ran), which :func:`admit` reuses to name the source descriptor.
    """
    from repro.formats.bindings import order_sensitive

    level = normalize_level(level)
    if level == "off":
        return False
    _record_check("input")
    # Morton-ordered and compressed containers carry their order in the
    # format itself, and check() enforces it; plain COO reports its
    # order from the check's own pass.
    scan = assume_sorted is not False and order_sensitive(container)
    try:
        if scan:
            position = container.check_and_find_unsorted()
        else:
            container.check()
    except ValidationError as err:
        _record_rejection(err, "input")
        raise
    if not scan:
        return False
    if position is not None and assume_sorted:
        err = UnsortedInputError(
            f"entries are not lexicographically sorted (first violation "
            f"at position {position}) but assume_sorted=True promised "
            f"sorted input",
            position=position,
            remedy="pass assume_sorted=False to convert via the "
                   "sorting COO descriptor",
            container=repr(container),
        )
        _record_rejection(err, "input")
        raise err
    return position is None


def admit(container, *, level: str = "inputs",
          assume_sorted: bool | None = True) -> str:
    """:func:`check_input`, then the source descriptor's name.

    Sortedness is resolved once: the check pass that enforces
    ``assume_sorted=True`` also picks SCOO over COO, so callers need no
    :func:`~repro.formats.container_format` scan.
    ``assume_sorted=None`` detects the order instead of promising it: a
    sorted plain COO binds to SCOO, an unsorted one to COO, and neither
    raises.  At ``level="off"`` nothing is checked, and an unsorted COO
    under ``assume_sorted=True`` falls back to COO.
    """
    from repro.formats.bindings import container_format, resolve_format

    if normalize_level(level) == "off":
        return container_format(
            container, assume_sorted=assume_sorted is not False
        )
    is_sorted = check_input(
        container, level=level, assume_sorted=assume_sorted
    )
    return resolve_format(container, is_sorted=bool(is_sorted))


def check_output(result, source, *, level: str = "full") -> None:
    """Gate a converted container against the source's dense semantics.

    At ``level="full"`` the result's invariants are checked and its dense
    image (coordinate map for 3-D tensors) must equal the source's.  Lower
    levels do nothing — outputs of a well-formed input are correct by
    construction, which is exactly the property the fuzzer keeps honest.
    """
    if normalize_level(level) != "full":
        return
    _record_check("output")
    try:
        if hasattr(result, "to_dense") and hasattr(source, "to_dense"):
            result.check_against_dense(source.to_dense())
        elif hasattr(result, "to_dict") and hasattr(source, "to_dict"):
            result.check_against_dense(source.to_dict())
        else:  # pragma: no cover - every container has one of the two
            result.check()
    except ValidationError as err:
        _record_rejection(err, "output")
        raise


__all__ = [
    "VALIDATE_LEVELS",
    "ValidationError",
    "admit",
    "check_input",
    "check_output",
    "normalize_level",
]

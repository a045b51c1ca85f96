"""Independent output checks: scipy.sparse and numpy index arithmetic.

Every expected array is derived from the input triplets with
``scipy.sparse`` and plain numpy; nothing here calls the converter.
Compressed destinations (CSR, CSC) must match scipy's canonical arrays
exactly.  Padded destinations (DIA, BCSR) may store explicit zeros; they
pass when their in-bounds nonzeros are exactly the input's, and the
check reports them as padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Reference:
    """Canonical forms of one input matrix."""

    shape: tuple[int, int]
    csr: sp.csr_matrix
    csc: sp.csc_matrix
    nnz: int


@dataclass(frozen=True)
class Verdict:
    ok: bool
    padded: bool = False
    reason: str = ""


def reference(nrows: int, ncols: int, row, col, val) -> Reference:
    coo = sp.coo_matrix(
        (np.asarray(val, dtype=np.float64),
         (np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64))),
        shape=(nrows, ncols),
    )
    csr = coo.tocsr()
    csr.sort_indices()
    csc = coo.tocsc()
    csc.sort_indices()
    return Reference((nrows, ncols), csr, csc, int(csr.nnz))


def _same(got, want) -> bool:
    got = np.asarray(got)
    return got.shape == want.shape and bool(np.array_equal(got, want))


def _triplets_equal(ref: Reference, i, j, v) -> Verdict:
    """Compare stored entries (explicit zeros dropped) with the input."""
    i, j, v = (np.asarray(a) for a in (i, j, v))
    nrows, ncols = ref.shape
    inside = (i >= 0) & (i < nrows) & (j >= 0) & (j < ncols)
    padded = bool(np.any(inside & (v == 0.0)))
    keep = inside & (v != 0.0)
    i, j, v = i[keep], j[keep], v[keep]
    order = np.lexsort((j, i))
    want_i = np.repeat(np.arange(nrows), np.diff(ref.csr.indptr))
    if not (_same(i[order], want_i) and _same(j[order], ref.csr.indices)
            and _same(v[order], ref.csr.data)):
        return Verdict(False, padded, "stored nonzeros differ from input")
    return Verdict(True, padded)


def check_fields(kind: str, fields: dict, ref: Reference) -> Verdict:
    """Check one result given as named arrays.

    ``kind`` is the destination family (``CSR``, ``CSC``, ``DIA``,
    ``BCSR``); ``fields`` holds its arrays under the container's
    attribute names plus ``nrows``/``ncols`` (and ``bsize`` for BCSR).
    """
    if (fields.get("nrows"), fields.get("ncols")) != ref.shape:
        return Verdict(False, reason="shape differs from input")
    if kind == "CSR":
        ok = (_same(fields["rowptr"], ref.csr.indptr)
              and _same(fields["col"], ref.csr.indices)
              and _same(fields["val"], ref.csr.data))
        return Verdict(ok, reason="" if ok else "CSR arrays differ")
    if kind == "CSC":
        ok = (_same(fields["colptr"], ref.csc.indptr)
              and _same(fields["row"], ref.csc.indices)
              and _same(fields["val"], ref.csc.data))
        return Verdict(ok, reason="" if ok else "CSC arrays differ")
    if kind == "DIA":
        off = np.asarray(fields["off"], dtype=np.int64)
        data = np.asarray(fields["data"], dtype=np.float64)
        nd, nrows = off.size, ref.shape[0]
        if data.size != nd * nrows:
            return Verdict(False, reason="DIA data size is not nrows*ndiags")
        i = np.repeat(np.arange(nrows), nd)
        j = i + np.tile(off, nrows)
        return _triplets_equal(ref, i, j, data)
    if kind == "BCSR":
        bs = int(fields["bsize"])
        browptr = np.asarray(fields["browptr"], dtype=np.int64)
        bcol = np.asarray(fields["bcol"], dtype=np.int64)
        data = np.asarray(fields["data"], dtype=np.float64)
        nbr = -(-ref.shape[0] // bs)
        if browptr.size != nbr + 1 or data.size != bcol.size * bs * bs:
            return Verdict(False, reason="BCSR array sizes inconsistent")
        bi = np.repeat(np.arange(nbr), np.diff(browptr))
        r, c = np.divmod(np.arange(bs * bs), bs)
        i = (bi[:, None] * bs + r[None, :]).ravel()
        j = (bcol[:, None] * bs + c[None, :]).ravel()
        return _triplets_equal(ref, i, j, data)
    return Verdict(False, reason=f"no reference check for {kind}")


#: Container class name -> (family, attribute names checked).
_CONTAINERS = {
    "CSRMatrix": ("CSR", ("rowptr", "col", "val")),
    "CSCMatrix": ("CSC", ("colptr", "row", "val")),
    "DIAMatrix": ("DIA", ("off", "data")),
    "BCSRMatrix": ("BCSR", ("bsize", "browptr", "bcol", "data")),
}


def family(dst: str) -> str:
    return dst.upper().rstrip("0123456789")


def check_container(result, dst: str, ref: Reference) -> Verdict:
    """Check a container returned by ``convert``/``convert_via_plan``."""
    entry = _CONTAINERS.get(type(result).__name__)
    if entry is None or entry[0] != family(dst):
        return Verdict(False, reason=f"{type(result).__name__} for {dst}")
    kind, names = entry
    fields = {name: getattr(result, name) for name in names}
    fields.update(nrows=result.nrows, ncols=result.ncols)
    if kind == "BCSR" and fields["bsize"] != int(dst[4:] or 2):
        return Verdict(False, reason="wrong block size")
    return check_fields(kind, fields, ref)


#: Wire array names of a ``repro-serve/1`` result -> container attributes.
_WIRE = {
    "CSR": {"rowptr": "rowptr", "col2": "col", "Asrc": "val"},
    "CSC": {"colptr": "colptr", "row2": "row", "Asrc": "val"},
    "BCSR": {"browptr": "browptr", "bcol": "bcol", "Asrc": "data"},
}


def check_reply(reply: dict, dst: str, ref: Reference) -> Verdict:
    """Check a daemon ``/convert`` success body."""
    kind = family(dst)
    arrays = reply.get("result", {}).get("arrays", {})
    shape = reply.get("result", {}).get("shape", {})
    names = _WIRE.get(kind, {})
    if not names or set(names) - set(arrays):
        return Verdict(False, reason=f"reply lacks {kind} arrays")
    fields = {attr: arrays[wire] for wire, attr in names.items()}
    fields.update(nrows=shape.get("NR"), ncols=shape.get("NC"))
    if kind == "BCSR":
        fields["bsize"] = int(dst[4:] or 2)
    return check_fields(kind, fields, ref)


def check_tier(requested: str, ran: str) -> Verdict:
    """An op that ran on another tier than asked for has failed."""
    if requested != ran:
        return Verdict(False, reason=f"asked for {requested}, ran on {ran}")
    return Verdict(True)


def check_rejection(status: int, body, expected_error: str) -> Verdict:
    """A malformed request passes only as a 400 with the typed error."""
    error = body.get("error", {}) if isinstance(body, dict) else {}
    if status == 400 and error.get("type") == expected_error:
        return Verdict(True)
    return Verdict(
        False, reason=f"expected 400 {expected_error}, got {status} "
                      f"{error.get('type', '')}".rstrip()
    )

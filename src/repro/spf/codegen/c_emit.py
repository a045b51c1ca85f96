"""Native C99 emission of a lowered SPF program.

The display C printer (:class:`~repro.spf.codegen.printers.CPrinter`)
shows the paper's CodeGen+ style output; this module is the *hardened*
version that the compiled backend actually builds and runs:

* typed signatures — every inspector compiles to one exported entry
  point ``repro_run(arrs, lens, scalars, out)`` taking the input arrays
  (``int64``/``float64`` buffers), their lengths, the scalar symbolic
  constants, and an output-buffer table it fills in,
* a self-contained runtime prelude — the permutation structures
  (``OrderedList`` / ``OrderedSet`` / ``LexBucketPermutation``), Morton
  encodings, binary search, and floor-division helpers re-implemented in
  C with ``malloc``/``realloc`` growth, matching the Python runtime in
  :mod:`repro.runtime` element for element,
* UF calls lowered to array indexing, permutation lookups lowered to a
  hash-rank map built by a stable radix sort.

Statement bodies arrive as :class:`~repro.spf.ast_nodes.Raw` Python
source (the SPF-IR ``Stmt`` texts); they are parsed with :mod:`ast` and
translated over a closed grammar.  Anything outside the grammar raises
:class:`CEmitError`, which the C backend turns into a per-conversion
fallback to the scalar lowering — unsupported shapes degrade, they do
not break.

Error protocol: ``repro_run`` returns 0 on success or an ``RT_E*`` code
the Python wrapper maps back onto the exception the scalar runtime
would have raised (``MemoryError``, ``KeyError``, ``ValueError``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.ir import Eq, Expr, FloorDiv, Mod, Mul, Sym, UFCall, Var
from ..ast_nodes import Comment, ForLoop, Guard, LetEq, Program, Raw
from .printers import SymbolTable

#: Array dtype tags shared with the Python-side marshaller.
I8 = "i8"
F8 = "f8"

#: Names of the float64 value arrays (everything else is int64).
_FLOAT_ARRAYS = ("Asrc", "Adst")


class CEmitError(ValueError):
    """The computation uses a shape the C emitter does not support."""


@dataclass
class CEmitted:
    """A compilable C translation unit plus its marshalling manifest."""

    c_source: str
    #: ``(name, "i8"|"f8")`` for every array parameter, in call order.
    array_params: list = field(default_factory=list)
    #: Scalar (symbolic constant) parameter names, in call order.
    scalar_params: list = field(default_factory=list)
    #: ``(name, "i8"|"f8"|"scalar")`` for every return, in return order.
    returns: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# The C runtime prelude.
#
# Every generated translation unit embeds this verbatim, so each compiled
# shared object is self-contained (no link-time coupling between cached
# artifacts and the package version that produced them).
# ---------------------------------------------------------------------------

RUNTIME_C = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct { void* ptr; long long len; } rt_buf;

#define RT_OK      0
#define RT_ENOMEM  1   /* -> MemoryError */
#define RT_EKEY    2   /* -> KeyError / IndexError */
#define RT_EVALUE  3   /* -> ValueError (negative Morton coordinate) */
#define RT_ERANGE  4   /* -> OverflowError (key exceeds 62 bits) */
#define RT_ESTATE  5   /* -> RuntimeError (protocol violation) */

#define RT_CK(x) do { rc = (x); if (rc != 0) goto fail; } while (0)

/* Python floor division / modulo semantics for negative operands. */
static int64_t rt_fdiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
static int64_t rt_fmod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
#define RT_FDIV(a, b) rt_fdiv((a), (b))
#define RT_FMOD(a, b) rt_fmod((a), (b))
static int64_t rt_max2(int64_t a, int64_t b) { return a > b ? a : b; }
static int64_t rt_min2(int64_t a, int64_t b) { return a < b ? a : b; }

/* ------------------------------------------------------------------ */
/* Allocation helpers: Python's `[0] * n` yields [] for n < 0, and the */
/* 1-byte floor keeps output pointers non-NULL for len-0 buffers.      */
static int rt_alloc_i64(int64_t n, int64_t** out, int64_t* len_out) {
    if (n < 0) n = 0;
    free(*out);
    *out = (int64_t*)calloc((size_t)(n > 0 ? n : 1), sizeof(int64_t));
    *len_out = n;
    return *out ? RT_OK : RT_ENOMEM;
}
static int rt_alloc_f64(int64_t n, double** out, int64_t* len_out) {
    if (n < 0) n = 0;
    free(*out);
    *out = (double*)calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    *len_out = n;
    return *out ? RT_OK : RT_ENOMEM;
}
static int rt_copy_i64(
    const int64_t* src, int64_t n, int64_t** out, int64_t* len_out
) {
    int rc = rt_alloc_i64(n, out, len_out);
    if (rc != RT_OK) return rc;
    if (n > 0) memcpy(*out, src, (size_t)n * sizeof(int64_t));
    return RT_OK;
}

/* Binary search in a sorted int64 array; -1 when absent (BSEARCH). */
static int64_t rt_bsearch(const int64_t* a, int64_t n, int64_t v) {
    int64_t lo = 0, hi = n - 1;
    while (lo <= hi) {
        int64_t mid = (lo + hi) >> 1;
        int64_t entry = a[mid];
        if (entry == v) return mid;
        if (entry < v) lo = mid + 1; else hi = mid - 1;
    }
    return -1;
}

/* Morton (Z-order) keys: first coordinate takes the low bit, matching */
/* repro.runtime.morton.  Coordinates above the 62-bit key budget fall */
/* back to the arbitrary-precision Python path via RT_ERANGE.          */
static int rt_morton2(int64_t i, int64_t j, int64_t* out) {
    uint64_t x, y, key = 0;
    int shift = 0;
    if (i < 0 || j < 0) return RT_EVALUE;
    if (i >= ((int64_t)1 << 31) || j >= ((int64_t)1 << 31)) return RT_ERANGE;
    x = (uint64_t)i; y = (uint64_t)j;
    while (x || y) {
        key |= (x & 1u) << shift;
        key |= (y & 1u) << (shift + 1);
        x >>= 1; y >>= 1; shift += 2;
    }
    *out = (int64_t)key;
    return RT_OK;
}
static int rt_morton3(int64_t i, int64_t j, int64_t k, int64_t* out) {
    uint64_t x, y, z, key = 0;
    int shift = 0;
    if (i < 0 || j < 0 || k < 0) return RT_EVALUE;
    if (i >= ((int64_t)1 << 20) || j >= ((int64_t)1 << 20) ||
        k >= ((int64_t)1 << 20)) return RT_ERANGE;
    x = (uint64_t)i; y = (uint64_t)j; z = (uint64_t)k;
    while (x || y || z) {
        key |= (x & 1u) << shift;
        key |= (y & 1u) << (shift + 1);
        key |= (z & 1u) << (shift + 2);
        x >>= 1; y >>= 1; z >>= 1; shift += 3;
    }
    *out = (int64_t)key;
    return RT_OK;
}

/* ------------------------------------------------------------------ */
/* rt_iset — OrderedSet: sorted unique int64 values, deduplicated at   */
/* insertion (bisect + memmove), exactly like the Python runtime.      */
typedef struct { int64_t* data; int64_t n, cap; } rt_iset;

static void rt_iset_init(rt_iset* s) { s->data = NULL; s->n = 0; s->cap = 0; }
static void rt_iset_free(rt_iset* s) { free(s->data); s->data = NULL; s->n = 0; s->cap = 0; }

static int rt_iset_insert(rt_iset* s, int64_t v) {
    int64_t lo = 0, hi = s->n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (s->data[mid] < v) lo = mid + 1; else hi = mid;
    }
    if (lo < s->n && s->data[lo] == v) return RT_OK;
    if (s->n == s->cap) {
        int64_t ncap = s->cap ? s->cap * 2 : 16;
        int64_t* nd = (int64_t*)realloc(s->data, (size_t)ncap * sizeof(int64_t));
        if (!nd) return RT_ENOMEM;
        s->data = nd; s->cap = ncap;
    }
    memmove(s->data + lo + 1, s->data + lo,
            (size_t)(s->n - lo) * sizeof(int64_t));
    s->data[lo] = v;
    s->n += 1;
    return RT_OK;
}

static int rt_iset_to_array(rt_iset* s, int64_t** out, int64_t* len_out) {
    return rt_copy_i64(s->data, s->n, out, len_out);
}

/* ------------------------------------------------------------------ */
/* rt_lexperm — LexBucketPermutation: histogram + prefix sum, lookups  */
/* served by advancing per-bucket fill pointers with automatic rewind  */
/* after each complete pass (multi-pass unfused inspectors).           */
typedef struct {
    int64_t nb;
    int64_t* counts;   /* nb + 1 */
    int64_t* starts;   /* nb + 1 */
    int64_t* fill;     /* nb + 1 */
    int64_t total, served;
    int finalized;
} rt_lexperm;

static int rt_lexperm_init(rt_lexperm* p, int64_t nb) {
    if (nb < 1) return RT_EVALUE;
    free(p->counts); free(p->starts); free(p->fill);
    p->nb = nb;
    p->counts = (int64_t*)calloc((size_t)(nb + 1), sizeof(int64_t));
    p->starts = NULL; p->fill = NULL;
    p->total = 0; p->served = 0; p->finalized = 0;
    return p->counts ? RT_OK : RT_ENOMEM;
}
static void rt_lexperm_free(rt_lexperm* p) {
    free(p->counts); free(p->starts); free(p->fill);
    p->counts = NULL; p->starts = NULL; p->fill = NULL;
}

static int rt_lexperm_insert(rt_lexperm* p, int64_t bucket) {
    if (bucket < -1 || bucket >= p->nb) return RT_EKEY;
    p->counts[bucket + 1] += 1;
    p->total += 1;
    p->finalized = 0;
    return RT_OK;
}

static int rt_lexperm_finalize(rt_lexperm* p) {
    int64_t b;
    free(p->starts); free(p->fill);
    p->starts = (int64_t*)malloc((size_t)(p->nb + 1) * sizeof(int64_t));
    p->fill = (int64_t*)malloc((size_t)(p->nb + 1) * sizeof(int64_t));
    if (!p->starts || !p->fill) return RT_ENOMEM;
    memcpy(p->starts, p->counts, (size_t)(p->nb + 1) * sizeof(int64_t));
    for (b = 0; b < p->nb; b++) p->starts[b + 1] += p->starts[b];
    memcpy(p->fill, p->starts, (size_t)(p->nb + 1) * sizeof(int64_t));
    p->served = 0;
    p->finalized = 1;
    return RT_OK;
}

static int rt_lexperm_lookup(rt_lexperm* p, int64_t bucket, int64_t* out) {
    int rc;
    int64_t b = bucket;
    if (!p->finalized) { rc = rt_lexperm_finalize(p); if (rc) return rc; }
    if (b == -1) b = p->nb;  /* Python's fill[-1] */
    if (b < 0 || b > p->nb) return RT_EKEY;
    *out = p->fill[b];
    p->fill[b] += 1;
    p->served += 1;
    if (p->served == p->total) {
        memcpy(p->fill, p->starts, (size_t)(p->nb + 1) * sizeof(int64_t));
        p->served = 0;
    }
    return RT_OK;
}

/* ------------------------------------------------------------------ */
/* rt_olist — OrderedList: append coordinate tuples + their key tuples,*/
/* finalize with a stable LSD radix sort over the key columns, then    */
/* serve lookups from an open-addressing coords -> rank hash map.      */
/* Duplicate coordinate tuples take the rank of their last occurrence  */
/* in sorted order; unique=1 collapses equal keys onto one rank.       */
typedef struct {
    int64_t arity, keylen;
    int desc, unique;
    int64_t n, cap;
    int64_t* coords;     /* n * arity */
    int64_t* keys;       /* n * keylen */
    int finalized;
    int64_t distinct;
    int64_t* ht_idx;     /* hash slots -> item index, -1 empty */
    int64_t* ht_rank;
    uint64_t mask;
} rt_olist;

static void rt_olist_init(
    rt_olist* o, int64_t arity, int64_t keylen, int desc, int unique
) {
    memset(o, 0, sizeof(*o));
    o->arity = arity;
    o->keylen = keylen;
    o->desc = desc;
    o->unique = unique;
}
static void rt_olist_free(rt_olist* o) {
    free(o->coords); free(o->keys); free(o->ht_idx); free(o->ht_rank);
    o->coords = NULL; o->keys = NULL; o->ht_idx = NULL; o->ht_rank = NULL;
}

static int rt_olist_push(rt_olist* o, const int64_t* c, const int64_t* k) {
    if (o->finalized) return RT_ESTATE;
    if (o->n == o->cap) {
        int64_t ncap = o->cap ? o->cap * 2 : 16;
        int64_t* nc = (int64_t*)realloc(
            o->coords, (size_t)(ncap * o->arity) * sizeof(int64_t));
        int64_t* nk;
        if (!nc) return RT_ENOMEM;
        o->coords = nc;
        nk = (int64_t*)realloc(
            o->keys, (size_t)(ncap * o->keylen) * sizeof(int64_t));
        if (!nk) return RT_ENOMEM;
        o->keys = nk;
        o->cap = ncap;
    }
    memcpy(o->coords + o->n * o->arity, c,
           (size_t)o->arity * sizeof(int64_t));
    memcpy(o->keys + o->n * o->keylen, k,
           (size_t)o->keylen * sizeof(int64_t));
    o->n += 1;
    return RT_OK;
}

static uint64_t rt_mix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}
static uint64_t rt_hash_coords(const int64_t* c, int64_t arity) {
    uint64_t h = 0x243F6A8885A308D3ULL;
    int64_t a;
    for (a = 0; a < arity; a++) h = rt_mix(h ^ (uint64_t)c[a]);
    return h;
}

static int rt_olist_finalize(rt_olist* o) {
    int64_t n = o->n, kl = o->keylen, i, col, next_rank;
    uint64_t cap;
    int64_t* order = NULL;
    int64_t* tmp = NULL;
    uint64_t* kcol = NULL;
    int64_t* cnt = NULL;
    if (o->finalized) return RT_OK;
    order = (int64_t*)malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    tmp = (int64_t*)malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    kcol = (uint64_t*)malloc((size_t)(n > 0 ? n : 1) * sizeof(uint64_t));
    cnt = (int64_t*)malloc((size_t)65536 * sizeof(int64_t));
    if (!order || !tmp || !kcol || !cnt) {
        free(order); free(tmp); free(kcol); free(cnt);
        return RT_ENOMEM;
    }
    for (i = 0; i < n; i++) order[i] = i;
    /* Stable LSD radix, least-significant key column last-to-first;   */
    /* the sign bit is flipped so unsigned digit order == signed order,*/
    /* and descending lists sort by the complemented key.              */
    for (col = kl - 1; col >= 0; col--) {
        uint64_t diff = 0, first = 0;
        int shift;
        for (i = 0; i < n; i++) {
            uint64_t k = (uint64_t)o->keys[i * kl + col]
                         ^ 0x8000000000000000ULL;
            if (o->desc) k = ~k;
            kcol[i] = k;
            if (i == 0) first = k; else diff |= k ^ first;
        }
        for (shift = 0; shift < 64; shift += 16) {
            int64_t run = 0;
            int b;
            if (((diff >> shift) & 0xFFFFULL) == 0) continue;
            memset(cnt, 0, (size_t)65536 * sizeof(int64_t));
            for (i = 0; i < n; i++)
                cnt[(kcol[order[i]] >> shift) & 0xFFFFULL] += 1;
            for (b = 0; b < 65536; b++) {
                int64_t c = cnt[b];
                cnt[b] = run;
                run += c;
            }
            for (i = 0; i < n; i++) {
                uint64_t d = (kcol[order[i]] >> shift) & 0xFFFFULL;
                tmp[cnt[d]++] = order[i];
            }
            { int64_t* sw = order; order = tmp; tmp = sw; }
        }
    }
    free(kcol); free(cnt);
    kcol = NULL; cnt = NULL;
    /* coords -> rank hash map; later (sorted-order) writes overwrite  */
    /* earlier ones, giving Python's dict last-wins semantics.         */
    cap = 16;
    while (cap < (uint64_t)(2 * n + 1)) cap <<= 1;
    free(o->ht_idx); free(o->ht_rank);
    o->ht_idx = (int64_t*)malloc((size_t)cap * sizeof(int64_t));
    o->ht_rank = (int64_t*)malloc((size_t)cap * sizeof(int64_t));
    if (!o->ht_idx || !o->ht_rank) {
        free(order); free(tmp);
        return RT_ENOMEM;
    }
    for (i = 0; i < (int64_t)cap; i++) o->ht_idx[i] = -1;
    o->mask = cap - 1;
    next_rank = -1;
    for (i = 0; i < n; i++) {
        int64_t it = order[i];
        const int64_t* cc = o->coords + it * o->arity;
        uint64_t h;
        if (o->unique) {
            if (i == 0 || memcmp(o->keys + order[i - 1] * kl,
                                 o->keys + it * kl,
                                 (size_t)kl * sizeof(int64_t)) != 0)
                next_rank += 1;
        } else {
            next_rank = i;
        }
        h = rt_hash_coords(cc, o->arity) & o->mask;
        for (;;) {
            int64_t slot = o->ht_idx[h];
            if (slot < 0 ||
                memcmp(o->coords + slot * o->arity, cc,
                       (size_t)o->arity * sizeof(int64_t)) == 0) {
                o->ht_idx[h] = it;
                o->ht_rank[h] = next_rank;
                break;
            }
            h = (h + 1) & o->mask;
        }
    }
    o->distinct = (n == 0) ? 0 : next_rank + 1;
    free(order); free(tmp);
    o->finalized = 1;
    return RT_OK;
}

static int rt_olist_lookup(rt_olist* o, const int64_t* c, int64_t* out) {
    uint64_t h;
    int rc;
    if (!o->finalized) { rc = rt_olist_finalize(o); if (rc) return rc; }
    if (o->n == 0) return RT_EKEY;
    h = rt_hash_coords(c, o->arity) & o->mask;
    for (;;) {
        int64_t it = o->ht_idx[h];
        if (it < 0) return RT_EKEY;
        if (memcmp(o->coords + it * o->arity, c,
                   (size_t)o->arity * sizeof(int64_t)) == 0) {
            *out = o->ht_rank[h];
            return RT_OK;
        }
        h = (h + 1) & o->mask;
    }
}

static int rt_olist_len(rt_olist* o, int64_t* out) {
    if (o->unique) {
        int rc;
        if (!o->finalized) { rc = rt_olist_finalize(o); if (rc) return rc; }
        *out = o->distinct;
        return RT_OK;
    }
    *out = o->n;
    return RT_OK;
}

void repro_free(void* p) { free(p); }
"""


def _v(name: str) -> str:
    """Mangle a generated-code name into the C local namespace."""
    return f"v_{name}"


def _s(name: str) -> str:
    """Mangle a permutation-object name into its C struct variable."""
    return f"s_{name}"


_CMP_OPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}


@dataclass
class _ObjInfo:
    kind: str  # "olist" | "iset" | "lexperm"
    arity: int = 0
    keylen: int = 0
    desc: bool = False
    unique: bool = False
    which: int = 0  # lexperm bucket coordinate


class _Emitter:
    """Single-use translator: one lowered Program → one C function."""

    def __init__(self, program: Program, name, params, returns, symtab):
        self.program = program
        self.name = name
        self.params = list(params)
        self.returns = list(returns)
        self.symtab: SymbolTable = symtab
        self.array_params = [p for p in self.params if p in symtab.arrays]
        self.scalar_params = [
            p for p in self.params if p not in symtab.arrays
        ]
        #: Current classification of every name, updated in program order
        #: (an OrderedSet local rebinds to an array at ``to_list()``).
        self.kind: dict[str, str] = {}
        for p in self.array_params:
            self.kind[p] = "array"
        for p in self.scalar_params:
            self.kind[p] = "scalar"
        self.arr_type: dict[str, str] = {
            p: (F8 if p in _FLOAT_ARRAYS else I8) for p in self.array_params
        }
        self.scalars: list[str] = []  # declaration order
        self.local_arrays: list[str] = []
        self.objects: dict[str, _ObjInfo] = {}
        self.body: list[str] = []
        self.helpers: list[str] = []  # per-object key/insert functions
        self.fail_used = False
        self._tmp = 0

    # -- small utilities ------------------------------------------------
    def err(self, why: str) -> CEmitError:
        return CEmitError(f"{self.name}: {why}")

    def line(self, ind: int, text: str) -> None:
        self.body.append("    " * ind + text)

    def check(self, ind: int, call: str) -> None:
        self.fail_used = True
        self.line(ind, f"RT_CK({call});")

    def declare_scalar(self, name: str) -> None:
        existing = self.kind.get(name)
        if existing is None:
            self.kind[name] = "scalar"
            self.scalars.append(name)
        elif existing != "scalar":
            raise self.err(f"{name!r} used as both {existing} and scalar")

    def declare_array(self, name: str, dtype: str) -> None:
        if name in self.array_params:
            raise self.err(f"parameter array {name!r} reassigned")
        if name not in self.local_arrays:
            self.local_arrays.append(name)
        self.kind[name] = "array"
        self.arr_type[name] = dtype

    # -- IR expression translation --------------------------------------
    def ir_expr(self, expr: Expr) -> str:
        parts: list[str] = []
        for atom, coef in expr.terms:
            text = self.ir_atom(atom)
            if coef == 1:
                piece = text
            elif coef == -1:
                piece = f"-{text}"
            else:
                piece = f"{coef} * {text}"
            if parts:
                if piece.startswith("-"):
                    parts.append(f"- {piece[1:]}")
                else:
                    parts.append(f"+ {piece}")
            else:
                parts.append(piece)
        if expr.const or not parts:
            if parts:
                sign = "+" if expr.const >= 0 else "-"
                parts.append(f"{sign} {abs(expr.const)}")
            else:
                parts.append(str(expr.const))
        return " ".join(parts)

    def ir_atom(self, atom) -> str:
        if isinstance(atom, (Var, Sym)):
            return _v(atom.name)
        if isinstance(atom, Mul):
            return f"{_v(atom.sym.name)} * ({self.ir_expr(atom.factor)})"
        if isinstance(atom, FloorDiv):
            return f"RT_FDIV({self.ir_expr(atom.numer)}, {atom.denom})"
        if isinstance(atom, Mod):
            return f"RT_FMOD({self.ir_expr(atom.numer)}, {atom.denom})"
        if isinstance(atom, UFCall):
            kind = self.kind.get(atom.name, self.symtab.kind_of(atom.name))
            args = [self.ir_expr(a) for a in atom.args]
            if kind == "array":
                if len(args) != 1:
                    raise self.err(
                        f"multi-index array access {atom.name!r}"
                    )
                return f"{_v(atom.name)}[{args[0]}]"
            if kind == "iset":
                if len(args) != 1:
                    raise self.err(f"multi-index set access {atom.name!r}")
                return f"{_s(atom.name)}.data[{args[0]}]"
            raise self.err(
                f"cannot inline {kind} call {atom.name!r} in an expression"
            )
        raise self.err(f"unknown IR atom {atom!r}")

    def ir_constraint(self, c) -> str:
        pos = Expr()
        neg = Expr()
        for atom, coef in c.expr.terms:
            if coef > 0:
                pos = pos + Expr(terms=((atom, coef),))
            else:
                neg = neg + Expr(terms=((atom, -coef),))
        if c.expr.const > 0:
            pos = pos + c.expr.const
        elif c.expr.const < 0:
            neg = neg + (-c.expr.const)
        op = "==" if isinstance(c, Eq) else ">="
        return f"{self.ir_expr(pos)} {op} {self.ir_expr(neg)}"

    def ir_bound(self, exprs, combiner: str) -> str:
        rendered = [self.ir_expr(e) for e in exprs]
        out = rendered[0]
        for piece in rendered[1:]:
            out = f"{combiner}({out}, {piece})"
        return out

    # -- Python (Raw statement) expression translation ------------------
    def py_expr(self, e: ast.expr) -> str:
        if isinstance(e, ast.Name):
            kind = self.kind.get(e.id, "scalar")
            if kind != "scalar":
                raise self.err(f"bare {kind} reference {e.id!r}")
            self.declare_scalar(e.id)
            return _v(e.id)
        if isinstance(e, ast.Constant):
            if isinstance(e.value, bool):
                return "1" if e.value else "0"
            if isinstance(e.value, int):
                return str(e.value)
            if isinstance(e.value, float):
                return repr(e.value)
            raise self.err(f"unsupported constant {e.value!r}")
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            return f"(-{self.py_expr(e.operand)})"
        if isinstance(e, ast.BinOp):
            left = self.py_expr(e.left)
            right = self.py_expr(e.right)
            if isinstance(e.op, ast.Add):
                return f"({left} + {right})"
            if isinstance(e.op, ast.Sub):
                return f"({left} - {right})"
            if isinstance(e.op, ast.Mult):
                return f"({left} * {right})"
            if isinstance(e.op, ast.FloorDiv):
                return f"RT_FDIV({left}, {right})"
            if isinstance(e.op, ast.Mod):
                return f"RT_FMOD({left}, {right})"
            raise self.err(f"unsupported operator {ast.dump(e.op)}")
        if isinstance(e, ast.Subscript):
            return self.py_subscript(e)
        if isinstance(e, ast.Call):
            return self.py_call_expr(e)
        if isinstance(e, ast.Compare):
            if len(e.ops) != 1:
                raise self.err("chained comparisons unsupported")
            op = _CMP_OPS.get(type(e.ops[0]))
            if op is None:
                raise self.err(f"comparison {ast.dump(e.ops[0])}")
            left = self.py_expr(e.left)
            right = self.py_expr(e.comparators[0])
            return f"({left} {op} {right})"
        if isinstance(e, ast.BoolOp) and isinstance(e.op, ast.And):
            return "(" + " && ".join(self.py_expr(v) for v in e.values) + ")"
        raise self.err(f"unsupported expression {ast.dump(e)}")

    def py_subscript(self, e: ast.Subscript) -> str:
        if not isinstance(e.value, ast.Name):
            raise self.err("computed subscript base")
        base = e.value.id
        idx = self.py_expr(e.slice)
        kind = self.kind.get(base)
        if kind == "array":
            return f"{_v(base)}[{idx}]"
        if kind == "iset":
            return f"{_s(base)}.data[{idx}]"
        raise self.err(f"subscript of {kind or 'unknown'} {base!r}")

    def py_call_expr(self, e: ast.Call) -> str:
        if not isinstance(e.func, ast.Name):
            raise self.err(f"call {ast.dump(e.func)} in expression")
        fn = e.func.id
        if fn in ("max", "min"):
            comb = "rt_max2" if fn == "max" else "rt_min2"
            args = [self.py_expr(a) for a in e.args]
            out = args[0]
            for piece in args[1:]:
                out = f"{comb}({out}, {piece})"
            return out
        if fn == "len":
            return self.py_len(e)
        if fn == "BSEARCH":
            if len(e.args) != 2 or not isinstance(e.args[0], ast.Name):
                raise self.err("BSEARCH over a non-name haystack")
            hay = e.args[0].id
            needle = self.py_expr(e.args[1])
            kind = self.kind.get(hay)
            if kind == "array":
                return f"rt_bsearch({_v(hay)}, {_v(hay)}__len, {needle})"
            if kind == "iset":
                return f"rt_bsearch({_s(hay)}.data, {_s(hay)}.n, {needle})"
            raise self.err(f"BSEARCH over {kind or 'unknown'} {hay!r}")
        raise self.err(f"call to {fn!r} in expression")

    def py_len(self, e: ast.Call) -> str:
        if len(e.args) != 1 or not isinstance(e.args[0], ast.Name):
            raise self.err("len() of a non-name")
        target = e.args[0].id
        kind = self.kind.get(target)
        if kind == "array":
            return f"{_v(target)}__len"
        if kind == "iset":
            return f"{_s(target)}.n"
        if kind == "lexperm":
            return f"{_s(target)}.total"
        raise self.err(f"len() of {kind or 'unknown'} {target!r}")

    # -- node translation ------------------------------------------------
    def node(self, node, ind: int) -> None:
        if isinstance(node, Program):
            for child in node.body:
                self.node(child, ind)
            return
        if isinstance(node, Comment):
            self.line(ind, f"/* {node.text} */")
            return
        if isinstance(node, ForLoop):
            self.declare_scalar(node.var)
            lb = self.ir_bound(node.lowers, "rt_max2")
            ub = self.ir_bound(node.uppers, "rt_min2")
            var = _v(node.var)
            self.line(
                ind, f"for ({var} = {lb}; {var} <= {ub}; {var}++) {{"
            )
            for child in node.body:
                self.node(child, ind + 1)
            self.line(ind, "}")
            return
        if isinstance(node, Guard):
            conds = " && ".join(
                f"({self.ir_constraint(c)})" for c in node.constraints
            )
            self.line(ind, f"if ({conds}) {{")
            for child in node.body:
                self.node(child, ind + 1)
            self.line(ind, "}")
            return
        if isinstance(node, LetEq):
            self.let_eq(node, ind)
            return
        if isinstance(node, Raw):
            try:
                tree = ast.parse(node.text)
            except SyntaxError as exc:
                raise self.err(f"unparseable statement {node.text!r}") from exc
            for st in tree.body:
                self.py_stmt(st, ind)
            return
        raise self.err(f"unknown AST node {node!r}")

    def let_eq(self, node: LetEq, ind: int) -> None:
        expr = node.expr
        # A whole-expression permutation lookup (`k = P(i, j)`) lowers to
        # a fallible runtime call, not an inline expression.
        if (
            len(expr.terms) == 1
            and expr.const == 0
            and expr.terms[0][1] == 1
            and isinstance(expr.terms[0][0], UFCall)
        ):
            atom = expr.terms[0][0]
            info = self.objects.get(atom.name)
            if info is not None:
                self.declare_scalar(node.var)
                args = [self.ir_expr(a) for a in atom.args]
                self.emit_lookup(node.var, atom.name, info, args, ind)
                return
        self.declare_scalar(node.var)
        self.line(ind, f"{_v(node.var)} = {self.ir_expr(expr)};")

    def emit_lookup(self, var, obj, info: _ObjInfo, args, ind) -> None:
        if info.kind == "lexperm":
            self.check(
                ind,
                f"rt_lexperm_lookup(&{_s(obj)}, {args[info.which]}, "
                f"&{_v(var)})",
            )
            return
        if info.kind == "olist":
            if len(args) != info.arity:
                raise self.err(f"{obj!r} lookup arity mismatch")
            coords = ", ".join(args)
            self.line(ind, "{")
            self.line(
                ind + 1, f"int64_t c__[{info.arity}] = {{{coords}}};"
            )
            self.check(
                ind + 1, f"rt_olist_lookup(&{_s(obj)}, c__, &{_v(var)})"
            )
            self.line(ind, "}")
            return
        raise self.err(f"lookup on {info.kind} object {obj!r}")

    # -- Raw Python statements -------------------------------------------
    def py_stmt(self, st: ast.stmt, ind: int) -> None:
        if isinstance(st, ast.Assign):
            if len(st.targets) != 1:
                raise self.err("multi-target assignment")
            target = st.targets[0]
            if isinstance(target, ast.Name):
                self.py_assign_name(target.id, st.value, ind)
                return
            if isinstance(target, ast.Subscript):
                lhs = self.py_subscript(target)
                self.line(ind, f"{lhs} = {self.py_expr(st.value)};")
                return
            raise self.err(f"assignment target {ast.dump(target)}")
        if isinstance(st, ast.AugAssign):
            if not isinstance(st.op, ast.Add):
                raise self.err("only += augmented assignment supported")
            if not isinstance(st.target, ast.Subscript):
                raise self.err("augmented assignment to a non-subscript")
            lhs = self.py_subscript(st.target)
            self.line(ind, f"{lhs} += {self.py_expr(st.value)};")
            return
        if isinstance(st, ast.Expr) and isinstance(st.value, ast.Call):
            self.py_call_stmt(st.value, ind)
            return
        if isinstance(st, ast.If):
            if st.orelse:
                raise self.err("if/else in statement body")
            cond = self.py_expr(st.test)
            self.line(ind, f"if ({cond}) {{")
            for child in st.body:
                self.py_stmt(child, ind + 1)
            self.line(ind, "}")
            return
        raise self.err(f"unsupported statement {ast.dump(st)}")

    def py_assign_name(self, name: str, value: ast.expr, ind: int) -> None:
        # Permutation-structure constructors.
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            ctor = value.func.id
            if ctor == "OrderedList":
                self.setup_olist(name, value, ind)
                return
            if ctor == "OrderedSet":
                if name in self.objects:
                    raise self.err(f"object {name!r} constructed twice")
                self.objects[name] = _ObjInfo(kind="iset")
                self.kind[name] = "iset"
                self.line(ind, f"rt_iset_init(&{_s(name)});")
                return
            if ctor == "LexBucketPermutation":
                self.setup_lexperm(name, value, ind)
                return
        # Allocation: `x = [0] * (expr)` / `x = [0.0] * (expr)`.
        if (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Mult)
            and isinstance(value.left, ast.List)
        ):
            elts = value.left.elts
            if len(elts) != 1 or not isinstance(elts[0], ast.Constant):
                raise self.err("allocation with a non-constant fill")
            dtype = F8 if isinstance(elts[0].value, float) else I8
            if elts[0].value != 0 and elts[0].value != 0.0:
                raise self.err("allocation with a non-zero fill")
            size = self.py_expr(value.right)
            self.declare_array(name, dtype)
            alloc = "rt_alloc_f64" if dtype == F8 else "rt_alloc_i64"
            self.check(
                ind, f"{alloc}({size}, &{_v(name)}, &{_v(name)}__len)"
            )
            return
        if isinstance(value, ast.Call):
            # `x = len(...)`, `x = list(arr)`, `x = s.to_list()`,
            # `x = BSEARCH(arr, v)`.
            if isinstance(value.func, ast.Name):
                fn = value.func.id
                if fn == "list":
                    if len(value.args) != 1 or not isinstance(
                        value.args[0], ast.Name
                    ):
                        raise self.err("list() of a non-name")
                    src = value.args[0].id
                    if self.kind.get(src) != "array":
                        raise self.err(f"list() of non-array {src!r}")
                    if self.arr_type.get(src) != I8:
                        raise self.err("list() copy of a float array")
                    self.declare_array(name, I8)
                    self.check(
                        ind,
                        f"rt_copy_i64({_v(src)}, {_v(src)}__len, "
                        f"&{_v(name)}, &{_v(name)}__len)",
                    )
                    return
            if isinstance(value.func, ast.Attribute):
                if value.func.attr != "to_list" or value.args:
                    raise self.err(
                        f"method call {value.func.attr!r} in assignment"
                    )
                if not isinstance(value.func.value, ast.Name):
                    raise self.err("to_list() of a non-name")
                src = value.func.value.id
                info = self.objects.get(src)
                if info is None or info.kind != "iset":
                    raise self.err(f"to_list() of non-set {src!r}")
                self.declare_array(name, I8)
                self.check(
                    ind,
                    f"rt_iset_to_array(&{_s(src)}, &{_v(name)}, "
                    f"&{_v(name)}__len)",
                )
                if name == src:
                    # The set variable rebinds to its materialized array
                    # (`off = off.to_list()`); its struct stays alive for
                    # cleanup but the name now denotes the array.
                    pass
                return
            if isinstance(value.func, ast.Name) and value.func.id == "len":
                target = value.args[0]
                if (
                    isinstance(target, ast.Name)
                    and self.objects.get(target.id) is not None
                    and self.objects[target.id].kind == "olist"
                ):
                    self.declare_scalar(name)
                    self.check(
                        ind,
                        f"rt_olist_len(&{_s(target.id)}, &{_v(name)})",
                    )
                    return
        # General scalar assignment (includes len of sets/arrays/lexperms,
        # BSEARCH, subscripts, arithmetic).
        self.declare_scalar(name)
        self.line(ind, f"{_v(name)} = {self.py_expr(value)};")

    def setup_olist(self, name: str, call: ast.Call, ind: int) -> None:
        if name in self.objects:
            raise self.err(f"object {name!r} constructed twice")
        if not call.args or not isinstance(call.args[0], ast.Constant):
            raise self.err("OrderedList with a non-literal arity")
        arity = int(call.args[0].value)
        key = None
        desc = False
        unique = False
        for kw in call.keywords:
            if kw.arg == "key":
                key = kw.value
            elif kw.arg == "op":
                if not isinstance(kw.value, ast.Constant):
                    raise self.err("OrderedList op is not a literal")
                desc = kw.value.value == ">"
            elif kw.arg == "unique":
                if not isinstance(kw.value, ast.Constant):
                    raise self.err("OrderedList unique is not a literal")
                unique = bool(kw.value.value)
            elif kw.arg == "lex":
                pass  # the key lambda below already spells the order
            else:
                raise self.err(f"OrderedList keyword {kw.arg!r}")
        if not isinstance(key, ast.Lambda):
            raise self.err("OrderedList without a literal key lambda")
        lam_params = [a.arg for a in key.args.args]
        if len(lam_params) != arity:
            raise self.err("OrderedList key arity mismatch")
        if not isinstance(key.body, ast.Tuple):
            raise self.err("OrderedList key is not a tuple")
        keylen = len(key.body.elts)
        info = _ObjInfo(
            kind="olist", arity=arity, keylen=keylen, desc=desc,
            unique=unique,
        )
        self.objects[name] = info
        self.kind[name] = "olist"
        self.emit_olist_helpers(name, info, lam_params, key.body.elts)
        self.line(
            ind,
            f"rt_olist_init(&{_s(name)}, {arity}, {keylen}, "
            f"{int(desc)}, {int(unique)});",
        )

    def emit_olist_helpers(self, name, info, lam_params, key_elts) -> None:
        """The per-object key function and arity-typed insert wrapper."""
        env = {p: f"c[{i}]" for i, p in enumerate(lam_params)}
        lines = [
            f"static int rt_key_{_v(name)}"
            "(const int64_t* c, int64_t* k) {",
        ]
        fallible = False
        for pos, elt in enumerate(key_elts):
            if (
                isinstance(elt, ast.Call)
                and isinstance(elt.func, ast.Name)
                and elt.func.id in ("MORTON", "MORTON2", "MORTON3")
            ):
                args = [self.key_expr(a, env) for a in elt.args]
                if len(args) == 2:
                    fn = "rt_morton2"
                elif len(args) == 3:
                    fn = "rt_morton3"
                else:
                    raise self.err("MORTON key with unsupported arity")
                fallible = True
                lines.append(
                    f"    rc = {fn}({', '.join(args)}, &k[{pos}]); "
                    "if (rc) return rc;"
                )
            else:
                lines.append(f"    k[{pos}] = {self.key_expr(elt, env)};")
        if fallible:
            lines.insert(1, "    int rc;")
        lines.append("    return RT_OK;")
        lines.append("}")
        self.helpers.append("\n".join(lines))
        cargs = ", ".join(f"int64_t a{i}" for i in range(info.arity))
        coords = ", ".join(f"a{i}" for i in range(info.arity))
        self.helpers.append(
            "\n".join(
                [
                    f"static int rt_insert_{_v(name)}"
                    f"(rt_olist* o, {cargs}) {{",
                    f"    int64_t c[{info.arity}] = {{{coords}}};",
                    f"    int64_t k[{info.keylen}];",
                    f"    int rc = rt_key_{_v(name)}(c, k);",
                    "    if (rc) return rc;",
                    "    return rt_olist_push(o, c, k);",
                    "}",
                ]
            )
        )

    def key_expr(self, e: ast.expr, env: dict) -> str:
        """Key-lambda body expressions over the coordinate environment."""
        if isinstance(e, ast.Name):
            if e.id not in env:
                raise self.err(f"free variable {e.id!r} in key lambda")
            return env[e.id]
        if isinstance(e, ast.Constant) and isinstance(e.value, int):
            return str(e.value)
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            return f"(-{self.key_expr(e.operand, env)})"
        if isinstance(e, ast.BinOp):
            left = self.key_expr(e.left, env)
            right = self.key_expr(e.right, env)
            if isinstance(e.op, ast.FloorDiv):
                return f"RT_FDIV({left}, {right})"
            if isinstance(e.op, ast.Mod):
                return f"RT_FMOD({left}, {right})"
            if isinstance(e.op, ast.Add):
                return f"({left} + {right})"
            if isinstance(e.op, ast.Sub):
                return f"({left} - {right})"
            if isinstance(e.op, ast.Mult):
                return f"({left} * {right})"
        raise self.err(f"unsupported key expression {ast.dump(e)}")

    def setup_lexperm(self, name: str, call: ast.Call, ind: int) -> None:
        if name in self.objects:
            raise self.err(f"object {name!r} constructed twice")
        if len(call.args) != 3 or call.keywords:
            raise self.err("LexBucketPermutation signature mismatch")
        nb = self.py_expr(call.args[0])
        if not isinstance(call.args[1], ast.Constant) or not isinstance(
            call.args[2], ast.Constant
        ):
            raise self.err("LexBucketPermutation with non-literal layout")
        info = _ObjInfo(
            kind="lexperm",
            arity=int(call.args[2].value),
            which=int(call.args[1].value),
        )
        self.objects[name] = info
        self.kind[name] = "lexperm"
        self.check(ind, f"rt_lexperm_init(&{_s(name)}, {nb})")

    def py_call_stmt(self, call: ast.Call, ind: int) -> None:
        if not isinstance(call.func, ast.Attribute) or not isinstance(
            call.func.value, ast.Name
        ):
            raise self.err(f"call statement {ast.dump(call)}")
        obj = call.func.value.id
        method = call.func.attr
        info = self.objects.get(obj)
        if info is None:
            raise self.err(f"method call on non-object {obj!r}")
        if method != "insert":
            raise self.err(f"unsupported method {obj}.{method}()")
        args = [self.py_expr(a) for a in call.args]
        if info.kind == "iset":
            if len(args) != 1:
                raise self.err("OrderedSet.insert arity mismatch")
            self.check(ind, f"rt_iset_insert(&{_s(obj)}, {args[0]})")
            return
        if info.kind == "lexperm":
            if len(args) != info.arity:
                raise self.err("LexBucketPermutation.insert arity mismatch")
            self.check(
                ind,
                f"rt_lexperm_insert(&{_s(obj)}, {args[info.which]})",
            )
            return
        if info.kind == "olist":
            if len(args) != info.arity:
                raise self.err("OrderedList.insert arity mismatch")
            self.check(
                ind, f"rt_insert_{_v(obj)}(&{_s(obj)}, {', '.join(args)})"
            )
            return
        raise self.err(f"insert on {info.kind} object {obj!r}")

    # -- assembly ---------------------------------------------------------
    def run(self) -> CEmitted:
        for name in self.returns:
            if name in self.params:
                raise self.err(f"return {name!r} aliases a parameter")
        self.node(self.program, 1)

        decls: list[str] = []
        for i, p in enumerate(self.array_params):
            ctype = "double" if self.arr_type[p] == F8 else "int64_t"
            decls.append(
                f"    const {ctype}* {_v(p)} = (const {ctype}*)arrs[{i}];"
            )
            decls.append(f"    int64_t {_v(p)}__len = (int64_t)lens[{i}];")
            decls.append(f"    (void){_v(p)}__len;")
        for j, p in enumerate(self.scalar_params):
            decls.append(f"    int64_t {_v(p)} = (int64_t)scalars[{j}];")
            decls.append(f"    (void){_v(p)};")
        for name in self.local_arrays:
            ctype = "double" if self.arr_type[name] == F8 else "int64_t"
            decls.append(f"    {ctype}* {_v(name)} = NULL;")
            decls.append(f"    int64_t {_v(name)}__len = 0;")
        for name, info in self.objects.items():
            if info.kind == "olist":
                decls.append(f"    rt_olist {_s(name)};")
                decls.append(f"    memset(&{_s(name)}, 0, sizeof(rt_olist));")
            elif info.kind == "iset":
                decls.append(f"    rt_iset {_s(name)};")
                decls.append(f"    rt_iset_init(&{_s(name)});")
            else:
                decls.append(f"    rt_lexperm {_s(name)};")
                decls.append(
                    f"    memset(&{_s(name)}, 0, sizeof(rt_lexperm));"
                )
        if self.scalars:
            joined = ", ".join(f"{_v(n)} = 0" for n in self.scalars)
            decls.append(f"    int64_t {joined};")

        pack: list[str] = []
        manifest: list[tuple[str, str]] = []
        for i, name in enumerate(self.returns):
            kind = self.kind.get(name)
            if kind == "array":
                if name in self.array_params:
                    raise self.err(f"return {name!r} aliases a parameter")
                pack.append(f"    out[{i}].ptr = {_v(name)};")
                pack.append(
                    f"    out[{i}].len = (long long){_v(name)}__len;"
                )
                pack.append(f"    {_v(name)} = NULL;")
                manifest.append((name, self.arr_type[name]))
            elif kind == "scalar":
                pack.append(f"    out[{i}].ptr = NULL;")
                pack.append(f"    out[{i}].len = (long long){_v(name)};")
                manifest.append((name, "scalar"))
            elif kind == "iset":
                # An OrderedSet returned without `to_list()` (the
                # unoptimized DIA path): materialize its sorted values.
                self.fail_used = True
                pack.append("    {")
                pack.append("        int64_t* p__ = NULL;")
                pack.append("        int64_t n__ = 0;")
                pack.append(
                    f"        RT_CK(rt_copy_i64({_s(name)}.data, "
                    f"{_s(name)}.n, &p__, &n__));"
                )
                pack.append(f"        out[{i}].ptr = p__;")
                pack.append(f"        out[{i}].len = (long long)n__;")
                pack.append("    }")
                manifest.append((name, I8))
            else:
                raise self.err(
                    f"return {name!r} is a {kind or 'missing'} value"
                )

        cleanup: list[str] = []
        for name in self.local_arrays:
            cleanup.append(f"    free({_v(name)});")
        for name, info in self.objects.items():
            if info.kind == "olist":
                cleanup.append(f"    rt_olist_free(&{_s(name)});")
            elif info.kind == "iset":
                cleanup.append(f"    rt_iset_free(&{_s(name)});")
            else:
                cleanup.append(f"    rt_lexperm_free(&{_s(name)});")

        lines = [
            f"/* native inspector: {self.name} */",
            RUNTIME_C,
        ]
        lines.extend(self.helpers)
        lines.append("")
        lines.append(
            "int repro_run(void** arrs, long long* lens, "
            "long long* scalars, rt_buf* out) {"
        )
        lines.append("    int rc = 0;")
        lines.append("    (void)arrs; (void)lens; (void)scalars;")
        lines.extend(decls)
        lines.extend(self.body)
        lines.extend(pack)
        lines.append("    goto cleanup;")
        if self.fail_used:
            lines.append("fail:")
            lines.append("    ;")
        lines.append("cleanup:")
        lines.extend(cleanup)
        lines.append("    return rc;")
        lines.append("}")

        return CEmitted(
            c_source="\n".join(lines) + "\n",
            array_params=[(p, self.arr_type[p]) for p in self.array_params],
            scalar_params=list(self.scalar_params),
            returns=manifest,
        )


def emit_c(comp, params, returns, symtab: SymbolTable) -> CEmitted:
    """Emit a compilable C99 translation unit for one computation.

    Raises :class:`CEmitError` when the computation uses a construct the
    closed statement grammar does not cover; callers are expected to fall
    back to the scalar lowering in that case.
    """
    program = comp.lower()
    emitter = _Emitter(program, comp.name, params, returns, symtab)
    return emitter.run()

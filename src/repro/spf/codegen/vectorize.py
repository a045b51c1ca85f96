"""Vectorized NumPy lowering backend for synthesized inspectors.

The scalar printer in :mod:`.printers` interprets one loop iteration at a
time; this pass recognizes the recurring inspector shapes the synthesis
engine emits and lowers each loop nest to a handful of NumPy array
operations instead:

* flat and CSR-style nested iteration spaces -> ``np.arange`` columns plus
  segmented flattening (``SEGMENTS``), guards -> boolean masks;
* histogram loops (``X[e] += 1``) -> ``np.bincount``;
* prefix-sum / running-max fixup recurrences -> ``np.cumsum`` /
  ``np.maximum.accumulate``;
* the stateful bucket-fill pair (``k = F[b]; F[b] = k + 1``) ->
  occurrence-ranked positions (``FILL_POS``);
* scatter/gather copy statements -> fancy indexing, and reductions onto
  index arrays -> ``np.maximum.at`` / ``np.add.at``;
* :class:`~repro.runtime.ordered_list.OrderedList` /
  :class:`~repro.runtime.ordered_list.LexBucketPermutation` /
  :class:`~repro.runtime.ordered_list.OrderedSet` populations -> key-column
  sorts (``np.lexsort`` with a vectorized Morton interleave, ``np.unique``)
  with rank lookups replaced by precomputed position vectors.

Anything that does not match lowers **statement-by-statement through the
scalar printer**: an unmatched nest prints via
:class:`~repro.spf.codegen.printers.PythonPrinter` and runs unchanged
against the numpy arrays (DIA's guarded linear-search copy loop is the
canonical fallback).  Permutation objects are all-or-nothing: if any nest
touching an object cannot vectorize, every statement touching that object
falls back together, so scalar code always finds a real runtime object.

Correctness ground rules (the differential tests in
``tests/integration/test_backend_equivalence.py`` enforce all of these):

* a nest only vectorizes when no array is both read and written inside it,
  except through the recognized idioms above — everything else keeps
  strict scalar ordering via fallback;
* NumPy fancy assignment resolves duplicate indices last-wins, matching
  the scalar loop's overwrite order;
* rank lookups reproduce ``OrderedList``'s dict semantics exactly,
  including the last-duplicate-wins collapse for repeated coordinates
  (``STABLE_POS``) and dense key ranks for ``unique=True`` (``DENSE_POS``);
* the generated function returns its native representation (numpy
  arrays); ``SynthesizedConversion.__call__`` materializes plain python
  lists (``MATERIALIZE``) so observed outputs are bit-identical to the
  scalar backend's.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Sequence

from ..ast_nodes import Comment, ForLoop, Guard, LetEq, Node, Program, Raw
from .printers import PythonPrinter, SymbolTable, print_constraint, print_expr

#: Scalar helper -> vectorized helper renames applied to vectorized text.
_FUNC_RENAMES = {
    "MORTON": "MORTON_V",
    "MORTON2": "MORTON2_V",
    "MORTON3": "MORTON3_V",
    "BSEARCH": "BSEARCH_V",
}

#: Names that are never data reads when they appear in expressions.
_NON_DATA_NAMES = frozenset(
    {"max", "min", "len", "range", "int", "float", "list", "np"}
    | {
        "ASARRAY_INT", "ASARRAY_FLOAT", "TOLIST", "BOOLMASK", "SEGMENTS",
        "FILL_POS", "COUNT_POS", "STABLE_POS", "DENSE_POS",
    }
    | set(_FUNC_RENAMES) | set(_FUNC_RENAMES.values())
)

#: Parameters converted to float64 columns; everything else is int64.
DEFAULT_FLOAT_PARAMS = ("Asrc", "Adata", "x", "y")


class _NestFallback(Exception):
    """This loop nest cannot vectorize; print it with the scalar printer."""


class _ObjectFallback(Exception):
    """These permutation objects must lower scalar; redo the whole pass."""

    def __init__(self, names):
        super().__init__(", ".join(sorted(names)))
        self.names = set(names)


@dataclass
class NumpyLowering:
    """Result of lowering one inspector through the numpy backend."""

    source: str
    vectorized_nests: int = 0
    scalar_nests: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def fully_vectorized(self) -> bool:
        return self.scalar_nests == 0


@dataclass
class _PermSpec:
    """One permutation object (OrderedList/LexBucketPermutation/OrderedSet)."""

    name: str
    kind: str  # "ordered_list" | "lex_bucket" | "ordered_set"
    arity: int = 1
    key_params: tuple[str, ...] = ()
    key_exprs: tuple[str, ...] = ()
    unique: bool = False
    which: int = 0
    # Populated at the insert site:
    inserted: bool = False
    sig: tuple = ()
    coord_vars: tuple[str, ...] = ()
    canon_args: tuple[str, ...] = ()
    pos_var: str = ""
    len_expr: str = ""


class _Renamer(ast.NodeTransformer):
    def __init__(self, mapping):
        self.mapping = mapping

    def visit_Name(self, node):
        new = self.mapping.get(node.id)
        if new is not None:
            return ast.copy_location(ast.Name(id=new, ctx=node.ctx), node)
        return node


def _rename_text(text: str, mapping: dict[str, str]) -> str:
    if not mapping or not any(name in text for name in mapping):
        return text
    tree = _Renamer(mapping).visit(ast.parse(text, mode="eval"))
    return ast.unparse(tree)


_LIST_SUFFIX = "__list"


class _ListReads(ast.NodeTransformer):
    """Point single-element reads ``a[i]`` of the given arrays at their
    list snapshots ``a__list``; records which arrays it redirected."""

    def __init__(self, names):
        self.names = names
        self.used: set[str] = set()

    def visit_Subscript(self, node):
        self.generic_visit(node)
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.names
            and not isinstance(node.slice, (ast.Slice, ast.Tuple))
        ):
            self.used.add(node.value.id)
            node.value = ast.Name(id=node.value.id + _LIST_SUFFIX,
                                  ctx=ast.Load())
        return node


class _LetSubst(ast.NodeTransformer):
    def __init__(self, lets):
        self.lets = lets

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in self.lets:
            return ast.parse(self.lets[node.id], mode="eval").body
        return node


def _canon_text(text: str, lets: dict[str, str]) -> str:
    """Expression text with let variables substituted by their definitions.

    Let definitions are stored already-canonical, so one pass resolves
    chains.  Used to compare iteration signatures and insert/lookup
    arguments structurally.
    """
    tree = _LetSubst(lets).visit(ast.parse(text, mode="eval"))
    return ast.unparse(tree)


def _read_names(node: ast.AST) -> set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _tuple_text(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _Emitter:
    """One full lowering attempt over a program.

    Raises :class:`_ObjectFallback` when a permutation object turns out to
    need scalar treatment; the caller retries with the object in
    ``forced_scalar`` until the pass completes.
    """

    def __init__(self, symtab: SymbolTable, forced_scalar: set[str]):
        self.symtab = symtab
        self.forced = forced_scalar
        self.printer = PythonPrinter(symtab)
        self.perms: dict[str, _PermSpec] = {}
        self.array_vars: set[str] = set()
        self.lines: list[str] = []
        self.vectorized = 0
        self.scalar = 0
        self.notes: list[str] = []
        self._tmp = 0
        #: Cross-nest reuse of identical SEGMENTS calls (CSR-style bounds are
        #: recomputed per nest in the scalar program).  Keyed on the emitted
        #: call text; entries are only stored/served while every referenced
        #: name is an unmutated function parameter, so a hit is guaranteed to
        #: see the same values the first call saw.
        self.param_names: set[str] = set()
        self.mutated: set[str] = set()
        self.seg_cache: dict[str, tuple[str, str]] = {}
        self.seg_cache_ok = True

    def tmp(self) -> int:
        self._tmp += 1
        return self._tmp

    def add(self, text: str, indent: int) -> None:
        pad = "    " * indent
        for line in text.splitlines():
            self.lines.append(f"{pad}{line}" if line else line)

    # -- top-level traversal ------------------------------------------------

    def emit_body(self, program: Program, indent: int) -> None:
        self._emit_nodes(program.body, indent)

    def _emit_nodes(self, nodes: Sequence[Node], indent: int) -> None:
        for node in nodes:
            if isinstance(node, Comment):
                self.add(f"# {node.text}", indent)
            elif isinstance(node, LetEq):
                self.add(
                    f"{node.var} = {print_expr(node.expr, self.symtab, 'py')}",
                    indent,
                )
            elif isinstance(node, Raw):
                self._emit_top_raw(node, indent)
            elif isinstance(node, ForLoop):
                self._emit_nest(node, indent)
            elif isinstance(node, Guard):
                # Top-level preguard over symbolic constants: keep scalar.
                conds = " and ".join(
                    f"({print_constraint(c, self.symtab, 'py')})"
                    for c in node.constraints
                )
                self.add(f"if {conds}:", indent)
                if node.body:
                    self._emit_nodes(node.body, indent + 1)
                else:
                    self.add("pass", indent + 1)
            else:  # pragma: no cover - exhaustive over ast_nodes
                raise TypeError(f"cannot lower node {node!r}")

    def _emit_nest(self, loop: ForLoop, indent: int) -> None:
        # Bindings made inside a top-level guard may not execute; don't let
        # later nests reuse them.
        self.seg_cache_ok = indent == 1
        recurrence = self._try_recurrence(loop)
        if recurrence is not None:
            self.add(f"# vectorized recurrence: loop over {loop.var}", indent)
            for line in recurrence:
                self.add(line, indent)
            self.vectorized += 1
            return
        try:
            nest = _NestVectorizer(self, loop)
            lines = nest.run()
        except _NestFallback as why:
            scalar_text = self.printer.print(loop, 0)
            touched = {
                name for name in self.perms if _mentions(scalar_text, name)
            }
            if touched:
                # The object was meant to vectorize but this nest can't:
                # every statement touching it must fall back together.
                raise _ObjectFallback(touched) from None
            self.scalar += 1
            self.notes.append(f"scalar fallback (loop over {loop.var}): {why}")
            self.add(f"# scalar fallback: {why}", indent)
            self.add(self._list_reads(scalar_text, indent), indent)
            self.mutated |= _all_names(scalar_text) or set()
            return
        self.add(f"# vectorized: loop nest over {loop.var}", indent)
        for line in lines:
            self.add(line, indent)
        self.vectorized += 1

    def _list_reads(self, text: str, indent: int) -> str:
        """A scalar nest with its element reads of input arrays redirected
        to Python lists, snapshotted just before the nest.

        Indexing a numpy array boxes a numpy scalar per read, and numpy
        scalar arithmetic, hashing and comparison cost several times their
        Python-int forms; the values read are the same.  Arrays the nest
        writes keep their numpy reads.
        """
        try:
            tree = ast.parse(text)
        except SyntaxError:  # pragma: no cover - printer output parses
            return text
        written = {
            node.value.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and not isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
        } | {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
        }
        rewriter = _ListReads((self.param_names & self.array_vars) - written)
        tree = rewriter.visit(tree)
        if not rewriter.used:
            return text
        for name in sorted(rewriter.used):
            self.add(f"{name}{_LIST_SUFFIX} = {name}.tolist()", indent)
        return ast.unparse(tree)

    # -- recurrence loops ---------------------------------------------------

    def _try_recurrence(self, loop: ForLoop):
        """Match ``X[v] = X[v] (+|max|min) X[v-1]`` prefix recurrences."""
        body = [n for n in loop.body if not isinstance(n, Comment)]
        if len(body) != 1 or not isinstance(body[0], Raw):
            return None
        if len(loop.lowers) != 1 or len(loop.uppers) != 1:
            return None
        lb = print_expr(loop.lowers[0], self.symtab, "py")
        ub = print_expr(loop.uppers[0], self.symtab, "py")
        try:
            lb_int = int(lb)
        except ValueError:
            return None
        if lb_int < 1:
            return None
        try:
            stmts = ast.parse(body[0].text).body
        except SyntaxError:
            return None
        if len(stmts) != 1 or not isinstance(stmts[0], ast.Assign):
            return None
        stmt = stmts[0]
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and isinstance(target.slice, ast.Name)
            and target.slice.id == loop.var
        ):
            return None
        arr = target.value.id
        if arr not in self.array_vars:
            return None
        cur = ast.unparse(target)

        def is_prev(node):
            return (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == arr
                and isinstance(node.slice, ast.BinOp)
                and isinstance(node.slice.op, ast.Sub)
                and isinstance(node.slice.left, ast.Name)
                and node.slice.left.id == loop.var
                and isinstance(node.slice.right, ast.Constant)
                and node.slice.right.value == 1
            )

        def cur_prev_pair(a, b):
            return (ast.unparse(a) == cur and is_prev(b)) or (
                ast.unparse(b) == cur and is_prev(a)
            )

        value = stmt.value
        accumulate = None
        if (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and cur_prev_pair(value.left, value.right)
        ):
            accumulate = "np.cumsum"
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("max", "min")
            and len(value.args) == 2
            and cur_prev_pair(value.args[0], value.args[1])
        ):
            accumulate = (
                "np.maximum.accumulate"
                if value.func.id == "max"
                else "np.minimum.accumulate"
            )
        if accumulate is None:
            return None
        if loop.var in _read_names_safe(ub):
            return None  # bound depends on the loop variable: not a recurrence
        t = self.tmp()
        self.mutated.add(arr)
        return [
            f"__acc{t} = {accumulate}({arr}[{lb_int - 1}:({ub}) + 1])",
            f"{arr}[{lb_int}:({ub}) + 1] = __acc{t}[1:]",
        ]

    # -- top-level raw statements ------------------------------------------

    def _emit_top_raw(self, raw: Raw, indent: int) -> None:
        text = raw.text
        try:
            stmts = ast.parse(text).body
        except SyntaxError:
            self._emit_raw_verbatim(text, indent)
            return
        for stmt in stmts:
            handled = self._try_top_stmt(stmt, indent)
            if not handled:
                self._emit_raw_verbatim(ast.unparse(stmt), indent)

    def _emit_raw_verbatim(self, text: str, indent: int) -> None:
        touched = {name for name in self.perms if _mentions(text, name)}
        if touched:
            raise _ObjectFallback(touched)
        self.mutated |= _all_names(text) or set()
        self.add(text, indent)

    def _try_top_stmt(self, stmt: ast.stmt, indent: int) -> bool:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return False
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return False
        name, value = target.id, stmt.value
        self.mutated.add(name)

        alloc = self._try_alloc(name, value)
        if alloc is not None:
            self.add(alloc, indent)
            self.array_vars.add(name)
            return True

        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            ctor = value.func.id
            if ctor in ("OrderedList", "OrderedSet", "LexBucketPermutation"):
                self._register_perm(name, ctor, value, indent)
                return True
            if (
                ctor == "list"
                and len(value.args) == 1
                and isinstance(value.args[0], ast.Name)
                and value.args[0].id in self.array_vars
            ):
                self.add(f"{name} = {value.args[0].id}.copy()", indent)
                self.array_vars.add(name)
                return True
            if (
                ctor == "len"
                and len(value.args) == 1
                and isinstance(value.args[0], ast.Name)
                and value.args[0].id in self.perms
            ):
                spec = self.perms[value.args[0].id]
                if not spec.inserted:
                    raise _ObjectFallback({spec.name})
                self.add(f"{name} = {spec.len_expr}", indent)
                return True

        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "to_list"
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id in self.perms
        ):
            spec = self.perms[value.func.value.id]
            if spec.kind != "ordered_set" or not spec.inserted:
                raise _ObjectFallback({spec.name})
            if name != spec.name:
                self.add(f"{name} = {spec.name}", indent)
            self.add(f"# {spec.name} already materialized as a sorted array", indent)
            return True

        return False

    def _try_alloc(self, name: str, value: ast.expr):
        """Rewrite ``[c] * (E)`` list allocations to numpy arrays."""
        if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult)):
            return None
        lst, size = value.left, value.right
        if not isinstance(lst, ast.List):
            lst, size = value.right, value.left
        if not (isinstance(lst, ast.List) and len(lst.elts) == 1):
            return None
        seed = lst.elts[0]
        if not isinstance(seed, ast.Constant) or isinstance(seed.value, bool):
            return None
        if not isinstance(seed.value, (int, float)):
            return None
        size_text = ast.unparse(size)
        dtype = "np.float64" if isinstance(seed.value, float) else "np.int64"
        # max(0, E): a negative scalar repeat count yields an empty list.
        if seed.value == 0:
            return f"{name} = np.zeros(max({size_text}, 0), dtype={dtype})"
        return (
            f"{name} = np.full(max({size_text}, 0), {seed.value!r}, "
            f"dtype={dtype})"
        )

    def _register_perm(
        self, name: str, ctor: str, call: ast.Call, indent: int
    ) -> None:
        if name in self.forced:
            self.add(f"{name} = {ast.unparse(call)}", indent)
            return
        try:
            spec = self._parse_perm(name, ctor, call)
        except _NestFallback:
            raise _ObjectFallback({name}) from None
        self.perms[name] = spec
        self.add(f"# {name}: vectorized {ctor}", indent)

    def _parse_perm(self, name: str, ctor: str, call: ast.Call) -> _PermSpec:
        if ctor == "OrderedSet":
            if call.args or call.keywords:
                raise _NestFallback("OrderedSet with arguments")
            return _PermSpec(name=name, kind="ordered_set")
        if ctor == "LexBucketPermutation":
            if len(call.args) != 3 or call.keywords:
                raise _NestFallback("unrecognized LexBucketPermutation ctor")
            which, arity = call.args[1], call.args[2]
            if not (
                isinstance(which, ast.Constant) and isinstance(arity, ast.Constant)
            ):
                raise _NestFallback("dynamic LexBucketPermutation shape")
            return _PermSpec(
                name=name,
                kind="lex_bucket",
                arity=int(arity.value),
                which=int(which.value),
            )
        # OrderedList(arity, 1, key=lambda ...: (...), op="<"
        #             [, unique=True][, lex=True])
        if len(call.args) != 2 or not isinstance(call.args[0], ast.Constant):
            raise _NestFallback("unrecognized OrderedList ctor")
        arity = int(call.args[0].value)
        key = op = None
        unique = False
        for kw in call.keywords:
            if kw.arg == "key":
                key = kw.value
            elif kw.arg == "op":
                op = kw.value
            elif kw.arg == "unique":
                if not isinstance(kw.value, ast.Constant):
                    raise _NestFallback("dynamic unique flag")
                unique = bool(kw.value.value)
            elif kw.arg != "lex":  # lex: the key lambda spells the order
                raise _NestFallback(f"unknown OrderedList kwarg {kw.arg}")
        if op is not None and not (
            isinstance(op, ast.Constant) and op.value == "<"
        ):
            raise _NestFallback("descending OrderedList")
        if not (
            isinstance(key, ast.Lambda)
            and isinstance(key.body, ast.Tuple)
            and all(isinstance(a, ast.arg) for a in key.args.args)
        ):
            raise _NestFallback("OrderedList key is not a tuple lambda")
        params = tuple(a.arg for a in key.args.args)
        if len(params) != arity:
            raise _NestFallback("key arity mismatch")
        return _PermSpec(
            name=name,
            kind="ordered_list",
            arity=arity,
            key_params=params,
            key_exprs=tuple(ast.unparse(e) for e in key.body.elts),
            unique=unique,
        )


class _SliceGather(ast.NodeTransformer):
    """Rewrite ``A[root]`` / ``A[root ± c]`` gathers into slice views.

    While the outermost loop variable is an untouched ``np.arange(lb, ub+1)``
    (no nested flattening, no guard filtering), indexing an array with it is
    an identity-order gather; the equivalent slice is a view — no copy and no
    per-element bounds check.  Only applied when ``lb + c`` is a known
    non-negative constant, so the slice can never wrap around.
    """

    def __init__(self, root: str, lb: int, ub: str, arrays: set[str]):
        self.root = root
        self.lb = lb
        self.ub = ub
        self.arrays = arrays

    def _offset(self, idx: ast.expr) -> int | None:
        if isinstance(idx, ast.Name) and idx.id == self.root:
            return 0
        if (
            isinstance(idx, ast.BinOp)
            and isinstance(idx.left, ast.Name)
            and idx.left.id == self.root
            and isinstance(idx.right, ast.Constant)
            and isinstance(idx.right.value, int)
        ):
            if isinstance(idx.op, ast.Add):
                return idx.right.value
            if isinstance(idx.op, ast.Sub):
                return -idx.right.value
        return None

    def visit_Subscript(self, node: ast.Subscript):
        self.generic_visit(node)
        if not (
            isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.arrays
        ):
            return node
        off = self._offset(node.slice)
        if off is None or self.lb + off < 0:
            return node
        upper = ast.parse(f"({self.ub}) + {off + 1}", mode="eval").body
        node.slice = ast.Slice(lower=ast.Constant(self.lb + off), upper=upper)
        return ast.copy_location(node, node)


def _split_const_add(idx: ast.expr) -> tuple[ast.expr, int] | None:
    """Decompose ``expr + c`` / ``c + expr`` with a positive int constant."""
    if not (isinstance(idx, ast.BinOp) and isinstance(idx.op, ast.Add)):
        return None
    for base, const in ((idx.left, idx.right), (idx.right, idx.left)):
        if (
            isinstance(const, ast.Constant)
            and isinstance(const.value, int)
            and not isinstance(const.value, bool)
            and const.value > 0
        ):
            return base, const.value
    return None


def _all_names(text: str) -> set[str] | None:
    try:
        return {
            n.id for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Name)
        }
    except SyntaxError:
        return None


def _mentions(text: str, name: str) -> bool:
    names = _all_names(text)
    return name in text if names is None else name in names


def _read_names_safe(text: str) -> set[str]:
    return _all_names(text) or set()


class _NestVectorizer:
    """Vectorize one top-level loop nest into flat array operations."""

    def __init__(self, em: _Emitter, root: ForLoop):
        self.em = em
        self.root = root
        self.lines: list[str] = []
        self.vec_vars: list[str] = []
        self.lets_canon: dict[str, str] = {}
        self.sig: list[tuple] = []
        self.flat_ref: str | None = None
        self.struct_reads: set[str] = set()
        self.pending: list[tuple[_PermSpec, tuple[str, ...]]] = []
        #: While the outermost loop variable is still its untouched
        #: ``np.arange`` (no nested flattening, no guard filtering yet),
        #: ``A[var]`` gathers are emitted as ``A[lb:ub+1]`` slice views.
        self.root_var: str | None = None
        self.root_lb: int | None = None
        self.root_ub: str | None = None
        self.root_intact = False

    def run(self) -> list[str]:
        self._descend([self.root])
        for spec, coord_vars in self.pending:
            self._finalize_perm(spec, coord_vars)
        return self._prune_dead(self.lines)

    @staticmethod
    def _prune_dead(lines: list[str]) -> list[str]:
        """Drop iteration-bookkeeping assignments nothing reads.

        Slice-view gathers often leave the ``np.arange`` column (and its
        repeat/mask updates) unused; those lines are pure, so a reverse
        liveness sweep removes them.  Only the bookkeeping forms are
        candidates — helper calls like ``FILL_POS`` have effects and
        position vectors may be read by later nests.
        """
        droppable = re.compile(
            r"^(\w+) = (?:np\.arange\(.*\)|np\.repeat\(\1, __len\d+\)|\1\[__m\d+\])$"
        )
        used: set[str] = set()
        kept: list[str] = []
        for line in reversed(lines):
            match = droppable.match(line)
            if match and match.group(1) not in used:
                continue
            names = _all_names(line)
            if names:
                used |= names
            kept.append(line)
        kept.reverse()
        return kept

    # -- structure ----------------------------------------------------------

    def _descend(self, nodes: Sequence[Node]) -> None:
        nested: Node | None = None
        raws: list[Raw] = []
        for node in nodes:
            if isinstance(node, Comment):
                continue
            if nested is not None:
                raise _NestFallback("statements after a nested loop")
            if isinstance(node, LetEq):
                if raws:
                    raise _NestFallback("let after statements")
                text = print_expr(node.expr, self.em.symtab, "py")
                lookup = self._match_lookup_text(text)
                if lookup is not None:
                    self._emit_lookup(node.var, *lookup)
                else:
                    self._emit_let(node.var, text)
            elif isinstance(node, Raw):
                raws.append(node)
            elif isinstance(node, (ForLoop, Guard)):
                # Assignment-only raws before a nested level act as lets
                # (e.g. the BSEARCH binding ahead of its ``d >= 0`` guard).
                for raw in raws:
                    self._emit_raw_as_lets(raw)
                raws = []
                nested = node
                if isinstance(node, ForLoop):
                    self._enter_loop(node)
                else:
                    self._enter_guard(node)
                self._descend(node.body)
            else:  # pragma: no cover
                raise _NestFallback(f"unexpected node {type(node).__name__}")
        if nested is None and raws:
            self._emit_terminals(raws)

    def _enter_loop(self, loop: ForLoop) -> None:
        symtab = self.em.symtab
        lows = [print_expr(e, symtab, "py") for e in loop.lowers]
        ups = [print_expr(e, symtab, "py") for e in loop.uppers]
        canon = (
            "loop",
            loop.var,
            tuple(sorted(_canon_text(t, self.lets_canon) for t in lows)),
            tuple(sorted(_canon_text(t, self.lets_canon) for t in ups)),
        )
        if self.flat_ref is None:
            lb = lows[0] if len(lows) == 1 else f"max({', '.join(lows)})"
            ub = ups[0] if len(ups) == 1 else f"min({', '.join(ups)})"
            self._check_struct_expr(lb)
            self._check_struct_expr(ub)
            self.lines.append(
                f"{loop.var} = np.arange({lb}, ({ub}) + 1, dtype=np.int64)"
            )
            self.root_var = loop.var
            self.root_ub = ub
            if lb.isdigit():
                self.root_lb = int(lb)
                self.root_intact = True
        else:
            lo = self._combine([self._vec_expr(x, self.struct_reads) for x in lows],
                               "np.maximum")
            hi = self._combine([self._vec_expr(x, self.struct_reads) for x in ups],
                               "np.minimum")
            call = f"SEGMENTS({lo}, {hi}, {self._flat_len()})"
            names = _read_names_safe(call)
            cacheable = (
                self.em.seg_cache_ok
                and names <= (self.em.param_names | _NON_DATA_NAMES)
                and names.isdisjoint(self.em.mutated)
            )
            cached = self.em.seg_cache.get(call) if cacheable else None
            if cached is not None:
                len_var, in_var = cached
            else:
                t = self.em.tmp()
                len_var, in_var = f"__len{t}", f"__in{t}"
                self.lines.append(f"{len_var}, {in_var} = {call}")
                if cacheable:
                    self.em.seg_cache[call] = (len_var, in_var)
            for nm in self.vec_vars:
                self.lines.append(f"{nm} = np.repeat({nm}, {len_var})")
            self.lines.append(f"{loop.var} = {in_var}")
            self.root_intact = False
        self.vec_vars.append(loop.var)
        self.flat_ref = loop.var
        self.sig.append(canon)

    def _flat_len(self) -> str:
        """Element count of the current flat iteration space.

        Prefers the closed-form ``ub + 1 - lb`` over ``flat_ref.shape[0]``
        while the root arange is intact, so slice-view gathers can leave the
        arange itself dead (and prunable)."""
        if self.root_intact:
            if self.root_lb == 0:
                return f"({self.root_ub}) + 1"
            return f"({self.root_ub}) + 1 - {self.root_lb}"
        return f"{self.flat_ref}.shape[0]"

    @staticmethod
    def _combine(texts: list[str], combiner: str) -> str:
        out = texts[0]
        for piece in texts[1:]:
            out = f"{combiner}({out}, {piece})"
        return out

    def _enter_guard(self, guard: Guard) -> None:
        if self.flat_ref is None:
            raise _NestFallback("guard outside any loop")
        symtab = self.em.symtab
        conds = [print_constraint(c, symtab, "py") for c in guard.constraints]
        canon = ("guard", tuple(sorted(
            _canon_text(c, self.lets_canon) for c in conds
        )))
        t = self.em.tmp()
        mask = " & ".join(
            f"({self._vec_expr(c, self.struct_reads)})" for c in conds
        )
        self.lines.append(
            f"__m{t} = BOOLMASK({self._flat_len()}, {mask})"
        )
        for nm in self.vec_vars:
            self.lines.append(f"{nm} = {nm}[__m{t}]")
        self.sig.append(canon)
        # Filtering breaks the identity between positions and root values.
        self.root_intact = False

    def _emit_let(self, var: str, scalar_text: str) -> None:
        vec = self._vec_expr(scalar_text, self.struct_reads)
        self.lets_canon[var] = _canon_text(scalar_text, self.lets_canon)
        self.lines.append(f"{var} = {vec}")
        self.vec_vars.append(var)

    def _emit_raw_as_lets(self, raw: Raw) -> None:
        try:
            stmts = ast.parse(raw.text).body
        except SyntaxError:
            raise _NestFallback("unparseable statement") from None
        for stmt in stmts:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                raise _NestFallback("non-binding statement before nested loop")
            var = stmt.targets[0].id
            lookup = self._match_lookup(stmt.value)
            if lookup is not None:
                self._emit_lookup(var, *lookup)
            else:
                self._emit_let(var, ast.unparse(stmt.value))

    # -- expression translation --------------------------------------------

    def _vec_expr(self, scalar_text: str, reads: set[str]) -> str:
        try:
            tree = ast.parse(scalar_text, mode="eval")
        except SyntaxError:
            raise _NestFallback(f"unparseable expression {scalar_text!r}") from None
        for node in ast.walk(tree):
            if not isinstance(node, ast.Name):
                continue
            if node.id in self.em.forced:
                # Bound to a scalar runtime object (forced fallback):
                # any nest touching it must run scalar too.
                raise _NestFallback(f"scalar object {node.id} referenced")
            spec = self.em.perms.get(node.id)
            if spec is not None and not (
                spec.kind == "ordered_set" and spec.inserted
            ):
                # Permutation lookups must go through _emit_lookup; a
                # finalized OrderedSet, by contrast, *is* a sorted array.
                raise _NestFallback(f"unsupported reference to {node.id}")
            if (
                isinstance(node.ctx, ast.Load)
                and node.id not in _NON_DATA_NAMES
                and node.id not in self.vec_vars
            ):
                reads.add(node.id)
        if self.root_intact:
            tree = _SliceGather(
                self.root_var, self.root_lb, self.root_ub, self.em.array_vars
            ).visit(tree)
        return ast.unparse(_Renamer(_FUNC_RENAMES).visit(tree))

    def _check_struct_expr(self, text: str) -> None:
        self.struct_reads |= _read_names_safe(text) - _NON_DATA_NAMES

    # -- terminal statements -------------------------------------------------

    def _emit_terminals(self, raws: Sequence[Raw]) -> None:
        stmts: list[ast.stmt] = []
        for raw in raws:
            try:
                stmts.extend(ast.parse(raw.text).body)
            except SyntaxError:
                raise _NestFallback("unparseable statement") from None
        ops = self._classify(stmts)
        self._hazard_check(ops)
        for op in ops:
            written = self._op_writes(op)
            if written is not None:
                self.em.mutated.add(written)
            self._emit_op(op)

    def _classify(self, stmts: list[ast.stmt]) -> list[tuple]:
        ops: list[tuple] = []
        i = 0
        while i < len(stmts):
            stmt = stmts[i]
            fill = None
            if i + 1 < len(stmts):
                fill = self._match_fill(stmt, stmts[i + 1])
            if fill is not None:
                ops.append(fill)
                i += 2
                continue
            ops.append(self._classify_one(stmt))
            i += 1
        return ops

    def _match_fill(self, first: ast.stmt, second: ast.stmt):
        """``v = F[b]`` immediately followed by ``F[b] = v + 1``."""
        if not (
            isinstance(first, ast.Assign)
            and len(first.targets) == 1
            and isinstance(first.targets[0], ast.Name)
            and isinstance(first.value, ast.Subscript)
            and isinstance(first.value.value, ast.Name)
        ):
            return None
        var = first.targets[0].id
        fill_arr = first.value.value.id
        idx = first.value.slice
        if not (
            isinstance(second, ast.Assign)
            and len(second.targets) == 1
            and isinstance(second.targets[0], ast.Subscript)
            and isinstance(second.targets[0].value, ast.Name)
            and second.targets[0].value.id == fill_arr
            and ast.dump(second.targets[0].slice) == ast.dump(idx)
        ):
            return None
        value = second.value
        if not (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and isinstance(value.left, ast.Name)
            and value.left.id == var
            and isinstance(value.right, ast.Constant)
            and value.right.value == 1
        ):
            return None
        return ("fill", fill_arr, idx, var)

    def _match_lookup(self, value: ast.expr):
        """``P(args...)`` for a vectorized permutation object."""
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in self.em.perms
        ):
            return None
        spec = self.em.perms[value.func.id]
        return spec, tuple(value.args)

    def _match_lookup_text(self, text: str):
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError:
            return None
        return self._match_lookup(tree.body)

    def _classify_one(self, stmt: ast.stmt) -> tuple:
        if isinstance(stmt, ast.Expr):
            call = stmt.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "insert"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id in self.em.perms
            ):
                return ("insert", self.em.perms[call.func.value.id],
                        tuple(call.args))
            raise _NestFallback("unsupported expression statement")
        if isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if not (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(stmt.op, ast.Add)
            ):
                raise _NestFallback("unsupported augmented assignment")
            if isinstance(stmt.value, ast.Constant) and isinstance(
                stmt.value.value, int
            ):
                return ("hist", target.value.id, target.slice, stmt.value.value)
            return ("augat", target.value.id, target.slice, stmt.value)
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            raise _NestFallback("unsupported statement")
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            lookup = self._match_lookup(stmt.value)
            if lookup is not None:
                return ("lookup", target.id, *lookup)
            return ("let", target.id, stmt.value)
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
        ):
            raise _NestFallback("unsupported assignment target")
        arr, idx, value = target.value.id, target.slice, stmt.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("max", "min")
            and len(value.args) == 2
        ):
            want = ast.unparse(target)
            for self_pos, other_pos in ((0, 1), (1, 0)):
                if ast.unparse(value.args[self_pos]) == want:
                    kind = "maxat" if value.func.id == "max" else "minat"
                    return (kind, arr, idx, value.args[other_pos])
        return ("scatter", arr, idx, value)

    # -- hazard analysis ----------------------------------------------------

    def _op_writes(self, op: tuple) -> str | None:
        kind = op[0]
        if kind in ("fill", "hist", "augat", "maxat", "minat", "scatter"):
            return op[1]
        return None

    def _op_reads(self, op: tuple) -> set[str]:
        kind = op[0]
        reads: set[str] = set()
        if kind == "fill":
            reads |= _read_names(op[2])  # index only; F handled internally
        elif kind == "hist":
            reads |= _read_names(op[2])
        elif kind in ("augat", "maxat", "minat", "scatter"):
            reads |= _read_names(op[2]) | _read_names(op[3])
        elif kind == "let":
            reads |= _read_names(op[2])
        elif kind == "lookup":
            for arg in op[3]:
                reads |= _read_names(arg)
        elif kind == "insert":
            for arg in op[2]:
                reads |= _read_names(arg)
        return reads - _NON_DATA_NAMES

    def _hazard_check(self, ops: list[tuple]) -> None:
        let_vars = {op[1] for op in ops if op[0] in ("let", "lookup")}
        fill_vars = {op[3] for op in ops if op[0] == "fill"}
        local = set(self.vec_vars) | let_vars | fill_vars
        writers: dict[str, int] = {}
        for op in ops:
            written = self._op_writes(op)
            if written is not None:
                writers[written] = writers.get(written, 0) + 1
                if written not in self.em.array_vars:
                    raise _NestFallback(
                        f"write target {written} is not a numpy array"
                    )
        for arr, count in writers.items():
            if count > 1:
                raise _NestFallback(f"{arr} written by multiple statements")
            if arr in self.struct_reads:
                raise _NestFallback(f"{arr} read by loop structure")
        for op in ops:
            for name in self._op_reads(op) - local:
                if name in writers:
                    raise _NestFallback(
                        f"{name} both read and written in one nest"
                    )

    # -- terminal emission ---------------------------------------------------

    def _vec_ast(self, node: ast.AST, reads: set[str] | None = None) -> str:
        sink = reads if reads is not None else set()
        return self._vec_expr(ast.unparse(node), sink)

    def _slice_index(self, idx: ast.expr) -> str | None:
        """Slice text for a root-arange index expression, if it is one.

        Root-arange indices are unique and in order, so ``A[idx] op= v``
        reductions collapse to slice assignments — no ``ufunc.at`` needed."""
        if not self.root_intact:
            return None
        off = _SliceGather(
            self.root_var, self.root_lb, self.root_ub, set()
        )._offset(idx)
        if off is None or self.root_lb + off < 0:
            return None
        return f"{self.root_lb + off}:({self.root_ub}) + {off + 1}"

    def _emit_op(self, op: tuple) -> None:
        kind = op[0]
        if kind == "let":
            self._emit_let(op[1], ast.unparse(op[2]))
        elif kind == "lookup":
            self._emit_lookup(op[1], op[2], op[3])
        elif kind == "fill":
            _, arr, idx, var = op
            t = self.em.tmp()
            self.lines.append(f"__b{t} = {self._vec_ast(idx)}")
            self.lines.append(f"{var} = FILL_POS({arr}, __b{t})")
            self.vec_vars.append(var)
        elif kind == "hist":
            _, arr, idx, const = op
            sl = self._slice_index(idx)
            scale = "" if const == 1 else f" * {const}"
            shifted = _split_const_add(idx)
            if sl is not None:
                self.lines.append(f"{arr}[{sl}] += {const}")
            elif shifted is not None:
                # ``A[b + c] += 1``: count raw b into the tail of A, saving
                # the shifted-index temporary.
                base, c = shifted
                self.lines.append(
                    f"{arr}[{c}:] += np.bincount({self._vec_ast(base)}, "
                    f"minlength={arr}.shape[0] - {c}){scale}"
                )
            else:
                self.lines.append(
                    f"{arr} += np.bincount({self._vec_ast(idx)}, "
                    f"minlength={arr}.shape[0]){scale}"
                )
        elif kind == "augat":
            _, arr, idx, value = op
            sl = self._slice_index(idx)
            if sl is not None:
                self.lines.append(f"{arr}[{sl}] += {self._vec_ast(value)}")
            else:
                self.lines.append(
                    f"np.add.at({arr}, {self._vec_ast(idx)}, "
                    f"{self._vec_ast(value)})"
                )
        elif kind in ("maxat", "minat"):
            _, arr, idx, value = op
            sl = self._slice_index(idx)
            fn = "np.maximum" if kind == "maxat" else "np.minimum"
            if sl is not None:
                self.lines.append(
                    f"{arr}[{sl}] = {fn}({arr}[{sl}], {self._vec_ast(value)})"
                )
            else:
                self.lines.append(
                    f"{fn}.at({arr}, {self._vec_ast(idx)}, "
                    f"{self._vec_ast(value)})"
                )
        elif kind == "scatter":
            _, arr, idx, value = op
            sl = self._slice_index(idx)
            target = (
                f"{arr}[{sl}]" if sl is not None
                else f"{arr}[{self._vec_ast(idx)}]"
            )
            self.lines.append(f"{target} = {self._vec_ast(value)}")
        elif kind == "insert":
            self._emit_insert(op[1], op[2])
        else:  # pragma: no cover
            raise _NestFallback(f"unknown op {kind}")

    def _emit_insert(self, spec: _PermSpec, args: tuple) -> None:
        if spec.inserted:
            raise _NestFallback(f"{spec.name} inserted from multiple nests")
        if spec.kind == "ordered_set":
            if len(args) != 1:
                raise _NestFallback("OrderedSet.insert arity")
            vals = f"__{spec.name}_vals"
            self.lines.append(f"{vals} = {self._vec_ast(args[0])}")
            spec.coord_vars = (vals,)
        else:
            if len(args) != spec.arity:
                raise _NestFallback(f"{spec.name}.insert arity mismatch")
            coord_vars = []
            for k, arg in enumerate(args):
                cv = f"__{spec.name}_c{k}"
                self.lines.append(f"{cv} = {self._vec_ast(arg)}")
                coord_vars.append(cv)
            spec.coord_vars = tuple(coord_vars)
        spec.canon_args = tuple(
            _canon_text(ast.unparse(a), self.lets_canon) for a in args
        )
        spec.sig = tuple(self.sig)
        spec.inserted = True
        self.pending.append((spec, spec.coord_vars))

    def _emit_lookup(self, var: str, spec: _PermSpec, args: tuple) -> None:
        if not spec.inserted or not spec.pos_var:
            raise _NestFallback(f"lookup of {spec.name} before its insert")
        if tuple(self.sig) != spec.sig:
            raise _NestFallback(
                f"lookup loop over {spec.name} differs from insert loop"
            )
        canon = tuple(
            _canon_text(ast.unparse(a), self.lets_canon) for a in args
        )
        if canon != spec.canon_args:
            raise _NestFallback(
                f"lookup arguments for {spec.name} differ from insert"
            )
        self.lines.append(f"{var} = {spec.pos_var}")
        self.vec_vars.append(var)

    def _finalize_perm(self, spec: _PermSpec, coord_vars: tuple[str, ...]) -> None:
        name = spec.name
        if spec.kind == "ordered_set":
            self.lines.append(f"{name} = np.unique({coord_vars[0]})")
            self.em.array_vars.add(name)
            spec.len_expr = f"{name}.shape[0]"
            return
        if spec.kind == "lex_bucket":
            bucket = coord_vars[spec.which]
            spec.pos_var = f"__{name}_pos"
            self.lines.append(f"{spec.pos_var} = COUNT_POS({bucket})")
            spec.len_expr = f"{bucket}.shape[0]"
            return
        # ordered_list: evaluate the key columns, then rank.
        rename = dict(_FUNC_RENAMES)
        rename.update(dict(zip(spec.key_params, coord_vars)))
        key_vars = []
        for k, expr in enumerate(spec.key_exprs):
            kv = f"__{name}_k{k}"
            self.lines.append(f"{kv} = {_rename_text(expr, rename)}")
            key_vars.append(kv)
        spec.pos_var = f"__{name}_pos"
        keys = _tuple_text(key_vars)
        if spec.unique:
            self.lines.append(
                f"{spec.pos_var}, __{name}_n = DENSE_POS({keys})"
            )
            spec.len_expr = f"__{name}_n"
        else:
            coords = _tuple_text(coord_vars)
            self.lines.append(
                f"{spec.pos_var} = STABLE_POS({keys}, {coords})"
            )
            spec.len_expr = f"{coord_vars[0]}.shape[0]"


def emit_numpy_function(
    name: str,
    params: Sequence[str],
    program: Program,
    returns: Sequence[str],
    symtab: SymbolTable,
    preamble: Sequence[str] = (),
    float_params: Sequence[str] = DEFAULT_FLOAT_PARAMS,
) -> NumpyLowering:
    """Numpy-backend counterpart of :func:`.printers.emit_python_function`.

    Returns the function source plus per-nest vectorization stats.  The
    emitted function expects the numpy execution namespace
    (``base_namespace("numpy")``) and returns numpy arrays (its native
    representation); materializing the scalar backend's plain lists is the
    caller's job (``repro.runtime.npvec.MATERIALIZE``).
    """
    forced: set[str] = set()
    for _ in range(16):  # bounded by the number of permutation objects
        emitter = _Emitter(symtab, forced)
        emitter.param_names = set(params)
        try:
            lines = [f"def {name}({', '.join(params)}):"]
            for p in params:
                if p in symtab.arrays:
                    conv = "ASARRAY_FLOAT" if p in float_params else "ASARRAY_INT"
                    lines.append(f"    {p} = {conv}({p})")
                    emitter.array_vars.add(p)
            for raw_line in preamble:
                emitter._emit_top_raw(Raw(raw_line), 1)
            emitter.emit_body(program, 1)
            break
        except _ObjectFallback as fb:
            new = fb.names - forced
            if not new:  # pragma: no cover - defensive: no progress
                raise RuntimeError(
                    f"vectorizer failed to converge on {sorted(fb.names)}"
                ) from None
            forced |= fb.names
    else:  # pragma: no cover
        raise RuntimeError("vectorizer failed to converge")
    lines.extend(emitter.lines)
    # Return the backend's native representation (numpy arrays); callers
    # that need the scalar backend's plain lists materialize at the call
    # boundary (``SynthesizedConversion.__call__`` via ``MATERIALIZE``).
    ret_items = ", ".join(f"{n!r}: {n}" for n in returns)
    lines.append(f"    return {{{ret_items}}}")
    notes = list(emitter.notes)
    for obj in sorted(forced):
        notes.append(f"scalar fallback: permutation object {obj}")
    from repro._prof import PROF

    PROF.incr("vectorize.nests.vectorized", emitter.vectorized)
    PROF.incr("vectorize.nests.scalar", emitter.scalar)
    return NumpyLowering(
        source="\n".join(lines) + "\n",
        vectorized_nests=emitter.vectorized,
        scalar_nests=emitter.scalar,
        notes=notes,
    )

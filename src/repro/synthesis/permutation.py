"""Permutation realization and the reorderings it unlocks.

The build stage delegates here for everything concerning the permutation
``P`` inserted by the paper's step 1: detecting when the lexicographic
reordering reduces to a stable bucket sort (and when that sort can be
inlined into plain index arrays), emitting the permutation population
statements, strengthening min/max reductions to plain assignments when
positions ascend, and aliasing a prefix-sum-shaped UF directly to the
counting sort's prefix array.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.formats.descriptor import FormatDescriptor
from repro.ir import Conjunction, Expr, Geq, IntSet, Var
from repro.pipeline.artifacts import CaseMatch
from repro.spf import Computation

from .compose import _bare_var_name, _dense_var_definitions
from .conversion import (
    PERMUTATION,
    PH_ALLOC,
    PH_PERM,
    PH_PERMSYM,
)

#: Expression printer type the build stage passes down.
ExprPrinter = Callable[[Expr], str]


def bucket_permutation_spec(
    src: FormatDescriptor, dst: FormatDescriptor
) -> Optional[tuple[str, Expr]]:
    """Detect when the permutation reduces to a stable bucket sort.

    Both orderings must be plain lexicographic; with the destination key
    ``(c, rest...)``, removing ``c`` from the source key must leave exactly
    ``rest`` — then source order already sorts entries within each value of
    ``c`` and a stable counting sort by ``c`` realizes the destination
    order.  Returns ``(bucket_dense_var, nbuckets_expr)`` or None.
    """
    if src.ordering is None or dst.ordering is None:
        return None
    rename = dict(zip(src.dense_vars, dst.dense_vars))
    src_key = [
        _bare_var_name(k.rename_vars(rename)) for k in src.ordering.key_exprs
    ]
    dst_key = [_bare_var_name(k) for k in dst.ordering.key_exprs]
    if any(v is None for v in src_key + dst_key):
        return None
    if set(src_key) != set(dst_key) or len(dst_key) < 2:
        return None
    bucket = dst_key[0]
    if [v for v in src_key if v != bucket] != dst_key[1:]:
        return None
    # Bucket count: the dense bound of the bucket coordinate in the
    # destination map's range (e.g. 0 <= j < NC gives NC buckets).
    dense_range = dst.sparse_to_dense.range(strict=False)
    uppers = dense_range.single_conjunction.upper_bounds(bucket)
    if not uppers:
        return None
    back = dict(zip(dst.dense_vars, src.dense_vars))
    return back.get(bucket, bucket), uppers[0] + 1


def emit_permutation(
    comp: Computation,
    src: FormatDescriptor,
    dst_r: FormatDescriptor,
    match: CaseMatch,
    *,
    bucket_spec: Optional[tuple[str, Expr]],
    inline_bucket: bool,
    pexpr: ExprPrinter,
    notes: list[str],
) -> bool:
    """Emit the permutation population statements; returns ``pos_stateful``.

    With ``inline_bucket`` the counting sort is maintained directly in
    index arrays and positions are produced statefully (``P_fill``) —
    ``match.pos_definition`` is cleared.  Otherwise a structure call
    (``LexBucketPermutation`` / ``OrderedList``) is populated over the
    source space.
    """
    if not match.emit_perm:
        return False
    empty_space = IntSet(())
    src_space = match.src_space
    dense_exprs = match.dense_exprs
    if inline_bucket:
        # Specialize *and inline* the permutation: a stable counting sort
        # over the leading destination key component, maintained directly in
        # index arrays (no per-element structure calls).
        assert bucket_spec is not None
        bucket_var, nbuckets = bucket_spec
        bexpr = pexpr(dense_exprs[bucket_var])
        comp.new_stmt(
            f"P_count = [0] * ({pexpr(nbuckets + 1)})",
            empty_space,
            writes=["P_count"],
            phase=PH_ALLOC,
        )
        comp.new_stmt(
            f"P_count[{bexpr} + 1] += 1",
            src_space,
            reads=sorted(src.index_ufs()),
            writes=["P_count"],
            phase=PH_PERM,
        )
        prefix_space = IntSet(
            ("x",),
            [Conjunction([Geq(Var("x") - 1), Geq(nbuckets - Var("x"))])],
        )
        comp.new_stmt(
            "P_count[x] = P_count[x] + P_count[x - 1]",
            prefix_space,
            reads=["P_count"],
            writes=["P_count"],
            phase=PH_PERMSYM,
        )
        comp.new_stmt(
            "P_fill = list(P_count)",
            empty_space,
            reads=["P_count"],
            writes=["P_fill"],
            phase=PH_PERMSYM,
        )
        match.pos_definition = None
        notes.append(
            "lexicographic reordering realized as an inlined stable bucket "
            f"sort over {bucket_var} ({nbuckets} buckets)"
        )
        return True
    if bucket_spec is not None:
        dense_order = list(src.dense_vars)
        bucket_var, nbuckets = bucket_spec
        which = dense_order.index(bucket_var)
        comp.new_stmt(
            f"{PERMUTATION} = LexBucketPermutation({pexpr(nbuckets)}, "
            f"{which}, {len(dense_order)})",
            empty_space,
            writes=[PERMUTATION],
            phase=PH_ALLOC,
        )
        insert_args = ", ".join(pexpr(dense_exprs[v]) for v in dense_order)
        comp.new_stmt(
            f"{PERMUTATION}.insert({insert_args})",
            src_space,
            reads=sorted(src.index_ufs()),
            writes=[PERMUTATION],
            phase=PH_PERM,
        )
        notes.append(
            "lexicographic reordering realized as a stable bucket sort: "
            f"P = LexBucketPermutation({nbuckets}, which={which})"
        )
        return False
    dense_order = list(src.dense_vars)
    if dst_r.ordering is not None:
        # Lambda parameters follow the dense-space order used at insert
        # time; the key body is the destination's ordering key rewritten
        # over the source's dense variable names (positional match).
        to_src = dict(zip(dst_r.dense_vars, src.dense_vars))
        key_terms = [
            pexpr(k.rename_vars(to_src)) for k in dst_r.ordering.key_exprs
        ]
        lambda_params = ", ".join(dense_order)
        key_text = f"lambda {lambda_params}: ({', '.join(key_terms)},)"
        # A key returning the dense coordinates themselves is plain
        # lexicographic order: the runtime sorts the tuples without
        # calling it.
        lex = key_terms == dense_order
        op = "<"
    else:
        key_text = "None"
        lex = False
        op = "<"
    unique_text = (
        ", unique=True"
        if dst_r.ordering is not None and dst_r.ordering.collapse_ties
        else ""
    )
    lex_text = ", lex=True" if lex else ""
    comp.new_stmt(
        f"{PERMUTATION} = OrderedList({len(dense_order)}, 1, "
        f"key={key_text}, op=\"{op}\"{unique_text}{lex_text})",
        empty_space,
        writes=[PERMUTATION],
        phase=PH_ALLOC,
    )
    insert_args = ", ".join(pexpr(dense_exprs[v]) for v in dense_order)
    comp.new_stmt(
        f"{PERMUTATION}.insert({insert_args})",
        src_space,
        reads=sorted(src.index_ufs()),
        writes=[PERMUTATION],
        phase=PH_PERM,
    )
    notes.append(
        f"P = OrderedList({len(dense_order)}, 1, key={key_text}, op='<')"
    )
    return False


def strengthen_reductions(
    src: FormatDescriptor,
    match: CaseMatch,
    *,
    bucket_spec: Optional[tuple[str, Expr]],
    optimize: bool,
    notes: list[str],
) -> None:
    """Degrade min/max reductions to assignments when positions ascend.

    The paper's "loop fusion and dead code elimination make it a simple
    assignment": when destination positions ascend along the source
    traversal — the identity-position case — each min/max reduction slot is
    last written by its extremal value, so the reduction degrades to a
    plain assignment.  With a stable bucket permutation the same holds
    within each bucket for slots indexed by the bucket coordinate alone.
    """
    position_var = match.position_var
    ascending_positions = optimize and position_var is not None and (
        match.identity_position or match.preserve_order
    )
    if ascending_positions:
        for plan in match.plans:
            if plan.kind == "max" and position_var is not None and any(
                position_var in e.var_names()
                for e in list(plan.args) + [plan.value]
            ):
                plan.kind = "scatter"
                notes.append(
                    f"{plan.uf}: max reduction strengthened to assignment "
                    "(positions ascend along the source traversal)"
                )
    elif optimize and bucket_spec is not None and position_var is not None:
        # With a stable bucket permutation, positions ascend *within each
        # bucket*: a max reduction whose target slot is a function of the
        # bucket coordinate alone is last-written by its maximum.  The
        # bucket coordinate may appear as any of its source-side
        # definitions (the tuple variable or the coordinate UF).
        bucket_defs = _dense_var_definitions(src).get(bucket_spec[0], [])
        for plan in match.plans:
            if (
                plan.kind == "max"
                and len(plan.args) == 1
                and any(
                    (plan.args[0] - d).is_constant() for d in bucket_defs
                )
                and position_var in plan.value.var_names()
            ):
                plan.kind = "scatter"
                notes.append(
                    f"{plan.uf}: max reduction strengthened to assignment "
                    "(positions ascend within each bucket)"
                )


def alias_prefix_ufs(
    comp: Computation,
    src: FormatDescriptor,
    match: CaseMatch,
    *,
    bucket_spec: Optional[tuple[str, Expr]],
    pos_stateful: bool,
    notes: list[str],
) -> set[str]:
    """Alias prefix-shaped UFs to the inlined counting sort's prefix array.

    A UF populated as ``uf[bucket + 1] = position + 1`` is exactly the
    counting sort's prefix array — ``uf[b]`` is the start of bucket ``b``
    — so the per-element stores and the monotonic fix-up for empty buckets
    collapse into one array copy taken after the prefix pass.
    """
    aliased_ufs: set[str] = set()
    position_var = match.position_var
    if not (pos_stateful and bucket_spec is not None and position_var):
        return aliased_ufs
    empty_space = IntSet(())
    bucket_defs = _dense_var_definitions(src).get(bucket_spec[0], [])
    for plan in list(match.plans):
        if (
            plan.kind == "scatter"
            and len(plan.args) == 1
            and any((plan.args[0] - d) == 1 for d in bucket_defs)
            and (plan.value - Var(position_var)) == 1
        ):
            match.plans.remove(plan)
            comp.new_stmt(
                f"{plan.uf} = list(P_count)",
                empty_space,
                reads=["P_count"],
                writes=[plan.uf],
                phase=PH_PERMSYM,
            )
            aliased_ufs.add(plan.uf)
            notes.append(
                f"{plan.uf}: aliased to the counting sort's prefix "
                "array (per-element stores and monotonic fix-up "
                "eliminated)"
            )
    return aliased_ufs

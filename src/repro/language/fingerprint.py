"""Structural canonicalization and fingerprinting of expressions.

Shared multi-query execution (docs/SHARED_EXECUTION.md) needs to decide
when two stage-0 gates from *different* queries are the same computation, so
one evaluation per event can serve all of them.  Textual equality is too
weak — per-user variants of a template rename bindings (``b.price > 10``
vs ``x.price > 10``) and permute conjuncts — so equality is defined over a
**canonical form**:

* the expression is run through the constant-folding optimizer first
  (idempotent for already-optimized predicate specs);
* pattern-variable names are substituted through a caller-supplied
  renaming (semantic analysis renames the anchor variable to a fixed
  placeholder, making fingerprints alpha-invariant);
* commutative boolean/equality structure is normalized: ``AND``/``OR``
  chains are flattened and their operands sorted, ``==``/``!=`` operands
  are sorted, and ``>``/``>=`` are rewritten as ``<``/``<=`` with the
  operands swapped;
* everything else (arithmetic order, literal types) is preserved
  verbatim — ``int`` and ``float`` literals are deliberately *not*
  conflated (``a.x > 10**17`` and ``a.x > 1e17`` differ on values where
  float precision runs out), and ``+``/``*`` operand order is kept
  (string concatenation is not commutative).

The normalizations are sound for the **value** a predicate produces on
every input where it evaluates cleanly; under the lenient-errors policy a
permuted ``AND`` may attribute an evaluation error to a different conjunct
than the original ordering would, but the predicate outcome (failed bind)
is the same.  Soundness is property-tested in
``tests/property/test_property_shared_execution.py``.

Only **self-contained** predicates are fingerprinted for sharing: those
whose value depends on nothing but the single candidate event bound to
their anchor variable.  Aggregates and ``prev()`` references read earlier
Kleene elements, and ``duration()`` reads the whole match span — all three
vary per *run*, not per event, and are excluded.
"""

from __future__ import annotations

from typing import Mapping

from repro.language.ast_nodes import (
    Aggregate,
    AttrRef,
    Binary,
    BinaryOp,
    Expr,
    FuncCall,
    Literal,
    PrevRef,
    Unary,
    VarRef,
    iter_subexpressions,
    referenced_variables,
)
from repro.language.optimizer import optimize

#: Placeholder the anchor variable is renamed to in predicate fingerprints,
#: making them invariant under per-query binding renames.
ANCHOR = "·"  # "·"

_COMPARISON_FLIP = {
    BinaryOp.GT: BinaryOp.LT,
    BinaryOp.GTE: BinaryOp.LTE,
}
_SYMMETRIC = frozenset({BinaryOp.EQ, BinaryOp.NEQ})


def canonical_expr(expr: Expr, rename: Mapping[str, str] | None = None) -> str:
    """Deterministic canonical serialization of ``expr``.

    Two expressions with equal canonical strings evaluate to the same
    value in every context (modulo which conjunct an evaluation error is
    attributed to — see module docs).  ``rename`` substitutes pattern
    variable names; unmapped names pass through unchanged.
    """
    return _serialize(optimize(expr), rename or {})


def _serialize(expr: Expr, rename: Mapping[str, str]) -> str:
    if isinstance(expr, Literal):
        value = expr.value
        return f"lit:{type(value).__name__}:{value!r}"
    if isinstance(expr, AttrRef):
        return f"attr:{rename.get(expr.var, expr.var)}.{expr.attr}"
    if isinstance(expr, PrevRef):
        return f"prev:{rename.get(expr.var, expr.var)}.{expr.attr}"
    if isinstance(expr, VarRef):
        return f"var:{rename.get(expr.var, expr.var)}"
    if isinstance(expr, Aggregate):
        return f"agg:{expr.func}:{rename.get(expr.var, expr.var)}.{expr.attr}"
    if isinstance(expr, FuncCall):
        args = ",".join(_serialize(a, rename) for a in expr.args)
        return f"call:{expr.name}({args})"
    if isinstance(expr, Unary):
        return f"{expr.op.name.lower()}({_serialize(expr.operand, rename)})"
    if isinstance(expr, Binary):
        return _serialize_binary(expr, rename)
    raise TypeError(f"cannot fingerprint expression node {type(expr).__name__}")


def _serialize_binary(expr: Binary, rename: Mapping[str, str]) -> str:
    op = expr.op
    if op in (BinaryOp.AND, BinaryOp.OR):
        operands = sorted(
            _serialize(part, rename) for part in _flatten(expr, op)
        )
        return f"{op.name.lower()}({','.join(operands)})"
    left = _serialize(expr.left, rename)
    right = _serialize(expr.right, rename)
    if op in _SYMMETRIC:
        if right < left:
            left, right = right, left
        return f"{op.name.lower()}({left},{right})"
    flipped = _COMPARISON_FLIP.get(op)
    if flipped is not None:  # a > b  ≡  b < a
        op, left, right = flipped, right, left
    return f"{op.name.lower()}({left},{right})"


def _flatten(expr: Expr, op: BinaryOp) -> list[Expr]:
    """Operands of a (possibly nested) chain of one commutative operator."""
    if isinstance(expr, Binary) and expr.op is op:
        return _flatten(expr.left, op) + _flatten(expr.right, op)
    return [expr]


def self_contained(expr: Expr, anchor: str | None) -> bool:
    """Whether ``expr``'s value depends only on the event bound to ``anchor``.

    Requires: every referenced variable is ``anchor``, and no construct
    reads run state (aggregates, ``prev()``, ``duration()``).  Predicates
    passing this test evaluate identically against any run context and may
    be computed once per event and shared across queries.
    """
    if anchor is None:
        return False
    if any(name != anchor for name in referenced_variables(expr)):
        return False
    for node in iter_subexpressions(expr):
        if isinstance(node, (Aggregate, PrevRef)):
            return False
        if isinstance(node, FuncCall) and node.name == "duration":
            return False
    return True


def predicate_fingerprint(expr: Expr, anchor: str | None) -> str | None:
    """Alpha-invariant fingerprint of a predicate, or ``None`` if unshareable.

    The anchor variable is renamed to the fixed :data:`ANCHOR` placeholder,
    so semantically identical predicates from queries that only renamed
    their bindings collapse to one fingerprint.
    """
    if not self_contained(expr, anchor):
        return None
    assert anchor is not None
    return canonical_expr(expr, {anchor: ANCHOR})

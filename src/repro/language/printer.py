"""Pretty-printer: AST → canonical CEPR-QL text.

``parse_query(format_query(q)) == q`` holds for every valid AST (the
printer round-trip property is tested with hypothesis).  The printer is
also used by the monitor to display registered queries.
"""

from __future__ import annotations

from repro.language.ast_nodes import (
    Aggregate,
    AttrRef,
    Binary,
    BinaryOp,
    Direction,
    EmitKind,
    Expr,
    FuncCall,
    Literal,
    PatternElement,
    PrevRef,
    Query,
    Unary,
    UnaryOp,
    VarRef,
    WindowKind,
)

# Precedence levels mirror the parser so we emit minimal parentheses.
_PRECEDENCE: dict[BinaryOp, int] = {
    BinaryOp.OR: 1,
    BinaryOp.AND: 2,
    BinaryOp.EQ: 3,
    BinaryOp.NEQ: 3,
    BinaryOp.LT: 3,
    BinaryOp.LTE: 3,
    BinaryOp.GT: 3,
    BinaryOp.GTE: 3,
    BinaryOp.ADD: 4,
    BinaryOp.SUB: 4,
    BinaryOp.MUL: 5,
    BinaryOp.DIV: 5,
    BinaryOp.MOD: 5,
}
_UNARY_PRECEDENCE = 6
_ATOM_PRECEDENCE = 7


def format_expr(expr: Expr) -> str:
    """Render an expression as query text."""
    text, _ = _format(expr)
    return text


def _format(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, Literal):
        return _format_literal(expr), _ATOM_PRECEDENCE
    if isinstance(expr, AttrRef):
        return f"{expr.var}.{expr.attr}", _ATOM_PRECEDENCE
    if isinstance(expr, PrevRef):
        return f"prev({expr.var}.{expr.attr})", _ATOM_PRECEDENCE
    if isinstance(expr, VarRef):
        return expr.var, _ATOM_PRECEDENCE
    if isinstance(expr, Aggregate):
        arg = expr.var if expr.attr is None else f"{expr.var}.{expr.attr}"
        return f"{expr.func}({arg})", _ATOM_PRECEDENCE
    if isinstance(expr, FuncCall):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.name}({args})", _ATOM_PRECEDENCE
    if isinstance(expr, Unary):
        return _format_unary(expr)
    if isinstance(expr, Binary):
        return _format_binary(expr)
    raise TypeError(f"cannot format {type(expr).__name__}")


def _format_literal(expr: Literal) -> str:
    value = expr.value
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        # Keep floats recognisable as floats on round-trip.
        return f"{value:.1f}"
    return repr(value)


#: NOT lives between AND (2) and comparisons (3) in the grammar
#: (``not_expr := NOT not_expr | comparison``), so it prints at level 2 and
#: parenthesises any operand below comparison level except a nested NOT.
_NOT_PRECEDENCE = 2


def _format_unary(expr: Unary) -> tuple[str, int]:
    inner, inner_prec = _format(expr.operand)
    if expr.op is UnaryOp.NEG:
        # Parenthesise a leading "-" too: "--x" would lex as a comment.
        if inner_prec < _UNARY_PRECEDENCE or inner.startswith("-"):
            inner = f"({inner})"
        return f"-{inner}", _UNARY_PRECEDENCE
    operand_is_not = isinstance(expr.operand, Unary) and expr.operand.op is UnaryOp.NOT
    if inner_prec < 3 and not operand_is_not:
        inner = f"({inner})"
    return f"NOT {inner}", _NOT_PRECEDENCE


_COMPARISONS = {
    BinaryOp.EQ, BinaryOp.NEQ, BinaryOp.LT, BinaryOp.LTE, BinaryOp.GT, BinaryOp.GTE,
}


def _format_binary(expr: Binary) -> tuple[str, int]:
    prec = _PRECEDENCE[expr.op]
    left, left_prec = _format(expr.left)
    right, right_prec = _format(expr.right)
    # Left-associative grammar: parenthesise the right child at equal
    # precedence, and any child at lower precedence.  Comparisons are
    # non-associative (at most one per level), so their left child needs
    # parentheses at equal precedence too.
    left_needs = left_prec <= prec if expr.op in _COMPARISONS else left_prec < prec
    if left_needs:
        left = f"({left})"
    if right_prec <= prec:
        right = f"({right})"
    op = expr.op.value
    return f"{left} {op} {right}", prec


def _format_element(element: PatternElement) -> str:
    parts = []
    if element.negated:
        parts.append("NOT ")
    parts.append(f"{element.event_type} {element.variable}")
    if element.kleene:
        parts.append("+")
    return "".join(parts)


def _format_window_amount(kind: WindowKind, span: float) -> str:
    if kind is WindowKind.COUNT:
        return f"{int(span)} EVENTS"
    if span == int(span):
        return f"{int(span)} SECONDS"
    return f"{span!r} SECONDS"  # every digit: the span parses back exactly


def format_query(query: Query) -> str:
    """Render a query AST as canonical multi-line CEPR-QL text."""
    lines: list[str] = []
    if query.name is not None:
        lines.append(f"NAME {query.name}")
    elements = ", ".join(_format_element(e) for e in query.pattern)
    lines.append(f"PATTERN SEQ({elements})")
    if query.where is not None:
        lines.append(f"WHERE {format_expr(query.where)}")
    if query.window is not None:
        lines.append(
            f"WITHIN {_format_window_amount(query.window.kind, query.window.span)}"
        )
    if query.strategy is not None:
        lines.append(f"USING {query.strategy.value}")
    if query.partition_by:
        lines.append("PARTITION BY " + ", ".join(query.partition_by))
    if query.rank_by:
        keys = ", ".join(
            f"{format_expr(k.expr)} {k.direction.value}" for k in query.rank_by
        )
        lines.append(f"RANK BY {keys}")
    if query.limit is not None:
        lines.append(f"LIMIT {query.limit}")
    if query.emit is not None:
        lines.append(f"EMIT {_format_emit(query)}")
    if query.yield_spec is not None:
        assignments = ", ".join(
            f"{attr} = {format_expr(expr)}"
            for attr, expr in query.yield_spec.assignments
        )
        lines.append(f"YIELD {query.yield_spec.event_type}({assignments})")
    return "\n".join(lines)


def _format_emit(query: Query) -> str:
    emit = query.emit
    assert emit is not None
    if emit.kind is EmitKind.ON_WINDOW_CLOSE:
        return "ON WINDOW CLOSE"
    if emit.kind is EmitKind.EAGER:
        return "EAGER"
    assert emit.period is not None and emit.period_kind is not None
    return "EVERY " + _format_window_amount(emit.period_kind, emit.period)

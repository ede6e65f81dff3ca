"""Abstract syntax tree for CEPR-QL.

Two families of nodes:

* **Expressions** (:class:`Expr` subclasses) — shared by ``WHERE``
  predicates and ``RANK BY`` scoring keys.
* **Query structure** — the parsed clauses of one query
  (:class:`Query`, :class:`PatternElement`, :class:`WindowSpec`,
  :class:`RankKey`, :class:`EmitSpec`).

All nodes are frozen dataclasses so they hash and compare structurally,
which the printer round-trip tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, or boolean."""

    value: Union[int, float, str, bool]


@dataclass(frozen=True)
class AttrRef(Expr):
    """Reference to a pattern variable's attribute, e.g. ``b.price``.

    For a Kleene variable this denotes the *current element's* attribute and
    is only legal inside incremental ``WHERE`` predicates.
    """

    var: str
    attr: str


@dataclass(frozen=True)
class PrevRef(Expr):
    """``prev(v.attr)`` — the previous element of Kleene variable ``v``.

    Only legal inside an incremental predicate on ``v``; vacuously true for
    the first element (no predecessor exists).
    """

    var: str
    attr: str


#: Aggregate function names accepted over Kleene bindings.
AGGREGATE_FUNCS: frozenset[str] = frozenset(
    {"count", "len", "sum", "avg", "min", "max", "first", "last"}
)


@dataclass(frozen=True)
class Aggregate(Expr):
    """Aggregate over a Kleene binding: ``avg(v.attr)``, ``count(v)``.

    ``attr`` is ``None`` only for ``count``/``len``.
    """

    func: str
    var: str
    attr: str | None = None


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar built-in call: ``abs(x)``, ``duration()``, ``timestamp(v)``."""

    name: str
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class VarRef(Expr):
    """Bare reference to a pattern variable, as an argument to built-ins."""

    var: str


class BinaryOp(Enum):
    """Binary operators, in one enum so evaluators can dispatch uniformly."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    LTE = "<="
    GT = ">"
    GTE = ">="
    AND = "AND"
    OR = "OR"


@dataclass(frozen=True)
class Binary(Expr):
    op: BinaryOp
    left: Expr
    right: Expr


class UnaryOp(Enum):
    """Unary operators: arithmetic negation and boolean NOT."""

    NEG = "-"
    NOT = "NOT"


@dataclass(frozen=True)
class Unary(Expr):
    op: UnaryOp
    operand: Expr


# ---------------------------------------------------------------------------
# query structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternElement:
    """One element of a ``SEQ(...)`` pattern.

    ``SEQ(Buy b, Sell+ ss, NOT Cancel c)`` yields three elements:
    ``(Buy, b)``, ``(Sell, ss, kleene)``, ``(Cancel, c, negated)``.
    """

    event_type: str
    variable: str
    kleene: bool = False
    negated: bool = False


class SelectionStrategy(Enum):
    """SASE-style event selection strategies.

    * ``STRICT`` — matched events must be contiguous (within the partition).
    * ``SKIP_TILL_NEXT`` — irrelevant events are skipped; each run extends
      deterministically on the next relevant event.
    * ``SKIP_TILL_ANY`` — every relevant event both extends a copy of the
      run and is skipped by the original, enumerating all combinations.
    """

    STRICT = "STRICT"
    SKIP_TILL_NEXT = "SKIP_TILL_NEXT"
    SKIP_TILL_ANY = "SKIP_TILL_ANY"


#: Aliases accepted in query text for each strategy.
STRATEGY_ALIASES: dict[str, SelectionStrategy] = {
    "STRICT": SelectionStrategy.STRICT,
    "STRICT_CONTIGUITY": SelectionStrategy.STRICT,
    "SKIP_TILL_NEXT": SelectionStrategy.SKIP_TILL_NEXT,
    "SKIP_TILL_NEXT_MATCH": SelectionStrategy.SKIP_TILL_NEXT,
    "SKIP_TILL_ANY": SelectionStrategy.SKIP_TILL_ANY,
    "SKIP_TILL_ANY_MATCH": SelectionStrategy.SKIP_TILL_ANY,
}


class WindowKind(Enum):
    """Whether a window counts arrival positions or spans stream time."""

    COUNT = "EVENTS"
    TIME = "TIME"


@dataclass(frozen=True)
class WindowSpec:
    """``WITHIN n EVENTS`` or ``WITHIN t <unit>`` (stored in seconds)."""

    kind: WindowKind
    span: float  # events for COUNT, seconds for TIME

    def __post_init__(self) -> None:
        if self.span <= 0:
            raise ValueError(f"window span must be positive, got {self.span}")


class Direction(Enum):
    """Sort direction of one RANK BY key (ASC = smaller is better)."""

    ASC = "ASC"
    DESC = "DESC"


@dataclass(frozen=True)
class RankKey:
    """One ``RANK BY`` term: a scoring expression plus a direction."""

    expr: Expr
    direction: Direction = Direction.ASC


class EmitKind(Enum):
    """When ranked results are released.

    * ``ON_WINDOW_CLOSE`` — tumbling evaluation: the stream is cut into
      consecutive epochs of the window span; the ordered top-k of each epoch
      is emitted when it closes.  This is the mode in which score-bound
      pruning is sound (see DESIGN.md).
    * ``EVERY`` — periodic snapshots of the current top-k over a sliding
      scope of live matches.
    * ``EAGER`` — a snapshot is emitted whenever the top-k set changes;
      earlier snapshots may be revised.
    """

    ON_WINDOW_CLOSE = "ON WINDOW CLOSE"
    EVERY = "EVERY"
    EAGER = "EAGER"


@dataclass(frozen=True)
class EmitSpec:
    kind: EmitKind
    #: For ``EVERY``: the period (events or seconds, per ``window_kind``).
    period: float | None = None
    period_kind: WindowKind | None = None


@dataclass(frozen=True)
class YieldSpec:
    """``YIELD Type(attr = expr, ...)`` — derive a new event per result.

    Each distinct match that appears in an emission is converted into one
    event of ``event_type`` whose payload is the evaluated assignments,
    and fed back into the engine (hierarchical CEP).  Expressions follow
    rank-key rules: complete-match evaluation, Kleene variables through
    aggregates only.
    """

    event_type: str
    assignments: tuple[tuple[str, "Expr"], ...]


@dataclass(frozen=True)
class Query:
    """A parsed CEPR-QL query (before semantic analysis)."""

    pattern: tuple[PatternElement, ...]
    where: Expr | None = None
    window: WindowSpec | None = None
    strategy: SelectionStrategy | None = None
    partition_by: tuple[str, ...] = ()
    rank_by: tuple[RankKey, ...] = ()
    limit: int | None = None
    emit: EmitSpec | None = None
    name: str | None = None
    yield_spec: "YieldSpec | None" = None

    def positive_elements(self) -> tuple[PatternElement, ...]:
        """The non-negated elements, in pattern order."""
        return tuple(e for e in self.pattern if not e.negated)

    def negated_elements(self) -> tuple[PatternElement, ...]:
        return tuple(e for e in self.pattern if e.negated)


def iter_subexpressions(expr: Expr):
    """Yield ``expr`` and every nested sub-expression, pre-order."""
    yield expr
    if isinstance(expr, Binary):
        yield from iter_subexpressions(expr.left)
        yield from iter_subexpressions(expr.right)
    elif isinstance(expr, Unary):
        yield from iter_subexpressions(expr.operand)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from iter_subexpressions(arg)


def referenced_variables(expr: Expr) -> frozenset[str]:
    """All pattern variables referenced anywhere inside ``expr``."""
    names: set[str] = set()
    for node in iter_subexpressions(expr):
        if isinstance(node, (AttrRef, PrevRef, Aggregate, VarRef)):
            names.add(node.var)
    return frozenset(names)


def query_expressions(query: Query) -> list[Expr]:
    """The ``WHERE`` conjuncts, ``RANK BY`` keys and ``YIELD`` assignments."""
    exprs: list[Expr] = list(split_conjuncts(query.where))
    exprs.extend(key.expr for key in query.rank_by)
    if query.yield_spec is not None:
        exprs.extend(expr for _attr, expr in query.yield_spec.assignments)
    return exprs


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Split a boolean expression at top-level ``AND`` into conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op is BinaryOp.AND:
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]

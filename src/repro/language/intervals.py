"""Interval arithmetic over CEPR-QL expressions.

This is the analytical heart of score-bound pruning
(:mod:`repro.ranking.pruning`) and of the static analyzer's
satisfiability checks: given a *partial* match — some pattern
variables bound to concrete events, others still open — we bound the value
any *completion* of the match could give a scoring expression.  Bound
variables contribute exact (degenerate) intervals; unbound variables
contribute their schema-declared attribute :class:`~repro.events.schema.Domain`;
aggregates over partially-bound Kleene variables combine the observed prefix
with domain bounds on future elements.

``bound(expr)`` returns an :class:`Interval` that is guaranteed to contain
the expression's value for **every** possible completion, or ``None`` when
no finite reasoning is possible (string values, undeclared domains,
division by an interval containing zero, ...).  ``None`` simply disables
pruning for that run — it is never wrong, only useless.  So is a value
that may be NaN (a NaN leaf, ``inf - inf``, ``0 * inf``, ``inf / inf``):
a NaN key is a scoring error, and ``min2``/``max2`` would clamp its
interval into a finite one that lets the pruner drop the run and hide it.

:class:`IntervalEvaluator` is the reference: the pruner compiles one
bound per run shape that reads leaves straight off a run (see
:mod:`repro.ranking.pruning`) and shares everything past the leaves with
it — the ``bound_*`` functions at the end of this module.

Soundness assumptions (documented in DESIGN.md):

* event timestamps are non-decreasing in arrival order, so a future event's
  timestamp is at least the latest observed timestamp;
* events conform to their declared domains (enforce with schema validation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.events.event import Event
from repro.events.schema import Domain
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
    UnaryOp,
    VarRef,
)

_INF = math.inf
_FLOAT_MAX = 1.7976931348623157e308  # sys.float_info.max


def _sound(lo: float, hi: float) -> "Interval":
    """Build an interval from arithmetic endpoints, fixing overflow.

    Endpoint arithmetic that overflows rounds to ±inf.  An infinite *outer*
    endpoint is a sound (loose) claim, but an infinite *inner* endpoint
    (lo=+inf or hi=-inf) would exclude reachable finite values.  IEEE
    round-to-nearest only overflows when the exact value already exceeds
    the largest finite float, so clamping the inner endpoint to ±float-max
    restores soundness.
    """
    if lo == _INF:
        lo = _FLOAT_MAX
    if hi == -_INF:
        hi = -_FLOAT_MAX
    return Interval(lo, hi)


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]``; endpoints may be infinite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value: float) -> "Interval":
        return cls(value, value)

    @classmethod
    def unbounded(cls) -> "Interval":
        return cls(-_INF, _INF)

    @classmethod
    def from_domain(cls, domain: Domain) -> "Interval":
        return cls(domain.lo, domain.hi)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __add__(self, other: "Interval") -> "Interval":
        return _sound(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return _sound(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        # inf * 0 is nan under IEEE; treat it as 0 (a zero endpoint wins).
        products = [0.0 if math.isnan(p) else p for p in products]
        return _sound(min(products), max(products))

    def __truediv__(self, other: "Interval") -> "Interval | None":
        if other.lo <= 0 <= other.hi:
            return None  # denominator may be zero: unbounded / undefined
        inv_a, inv_b = 1 / other.lo, 1 / other.hi
        if math.isinf(inv_a) or math.isinf(inv_b):
            # denominator endpoints too close to zero: the reciprocal
            # overflows and could exclude reachable finite values — make no
            # claim rather than an unsound one.
            return None
        inverse = Interval(min(inv_a, inv_b), max(inv_a, inv_b))
        return self * inverse

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def monotone_map(self, fn: Callable[[float], float]) -> "Interval | None":
        """Apply a non-decreasing function to both endpoints."""
        try:
            return Interval(fn(self.lo), fn(self.hi))
        except (ValueError, OverflowError):
            return None

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


#: ``(event_type, attribute) -> Domain | None`` lookup.
DomainLookup = Callable[[str, str], Domain | None]


@dataclass
class PartialMatchView:
    """What the interval evaluator knows about a partial match.

    Parameters
    ----------
    bindings:
        Concretely bound events so far (Kleene variables map to the
        accepted prefix, possibly still open).
    var_types:
        Pattern variable → event type, for every positive variable.
    kleene_vars:
        Names of Kleene variables.
    open_vars:
        Variables that may still accept events: unbound variables and the
        currently-open Kleene variable.
    max_kleene_count:
        Upper bound on the number of elements any Kleene variable can ever
        hold (window-derived), or ``None`` when unbounded.
    duration_so_far / max_duration:
        Observed span of the partial match and the window-derived cap on
        the final span (``None`` when the window does not cap time).
    latest_timestamp:
        Timestamp of the most recent event observed by the engine; future
        events are assumed to be at least this late.
    """

    bindings: Mapping[str, Event | Sequence[Event]]
    var_types: Mapping[str, str]
    kleene_vars: frozenset[str]
    open_vars: frozenset[str]
    domain_of: DomainLookup
    max_kleene_count: int | None = None
    duration_so_far: float = 0.0
    max_duration: float | None = None
    latest_timestamp: float | None = None

    def events_of(self, var: str) -> Sequence[Event]:
        binding = self.bindings.get(var)
        if binding is None:
            return ()
        if isinstance(binding, Event):
            return (binding,)
        return binding

    def attr_domain(self, var: str) -> Callable[[str], Interval | None]:
        event_type = self.var_types.get(var)

        def lookup(attr: str) -> Interval | None:
            if event_type is None:
                return None
            domain = self.domain_of(event_type, attr)
            return Interval.from_domain(domain) if domain is not None else None

        return lookup


class IntervalEvaluator:
    """Bounds expression values over all completions of a partial match."""

    def __init__(self, view: PartialMatchView) -> None:
        self.view = view

    def bound(self, expr: Expr) -> Interval | None:
        """Return a sound enclosure of ``expr``'s final value, or ``None``."""
        if isinstance(expr, Literal):
            if isinstance(expr.value, bool) or not isinstance(expr.value, (int, float)):
                return None
            return Interval.exact(float(expr.value))
        if isinstance(expr, AttrRef):
            return self._bound_attr(expr)
        if isinstance(expr, PrevRef):
            # prev() only appears in incremental WHERE predicates, never in
            # scoring expressions (enforced by semantic analysis).
            return None
        if isinstance(expr, Aggregate):
            return self._bound_aggregate(expr)
        if isinstance(expr, FuncCall):
            return self._bound_func(expr)
        if isinstance(expr, VarRef):
            return None
        if isinstance(expr, Binary):
            return self._bound_binary(expr)
        if isinstance(expr, Unary):
            return self._bound_unary(expr)
        return None

    # -- leaves --------------------------------------------------------------

    def _bound_attr(self, expr: AttrRef) -> Interval | None:
        events = self.view.events_of(expr.var)
        if events and expr.var not in self.view.kleene_vars:
            return numeric_exact(events[0].get(expr.attr))
        if expr.var in self.view.kleene_vars:
            # Per-element reference outside an incremental predicate has no
            # single value; semantic analysis rejects it in rank keys.
            return None
        return self.view.attr_domain(expr.var)(expr.attr)

    def _bound_aggregate(self, expr: Aggregate) -> Interval | None:
        var = expr.var
        observed = self.view.events_of(var)
        is_open = var in self.view.open_vars
        count = bound_count(len(observed), is_open, self.view.max_kleene_count)
        if expr.func in ("count", "len"):
            return count
        assert expr.attr is not None
        values: list[float] = []
        for event in observed:
            exact = numeric_exact(event.get(expr.attr))
            if exact is None:
                return None
            values.append(exact.lo)
        summary: Observed | None = None
        if values:
            summary = (
                len(values),
                sum(values),
                min(values),
                max(values),
                values[0],
                values[-1],
            )
        domain = self.view.attr_domain(var)(expr.attr)
        return bound_aggregate(expr.func, summary, domain, is_open, count)

    # -- built-ins -----------------------------------------------------------

    def _bound_func(self, expr: FuncCall) -> Interval | None:
        name = expr.name
        if name == "duration":
            return bound_duration(self.view.duration_so_far, self.view.max_duration)
        if name in ("timestamp", "ts"):
            arg = expr.args[0]
            if not isinstance(arg, VarRef):
                return None
            events = self.view.events_of(arg.var)
            if events and arg.var not in self.view.kleene_vars:
                return Interval.exact(events[0].timestamp)
            if self.view.latest_timestamp is not None:
                return Interval(self.view.latest_timestamp, _INF)
            return None
        if name not in NUMERIC_FUNCTIONS:
            return None
        args = [bound for bound in map(self.bound, expr.args) if bound is not None]
        if len(args) != len(expr.args):
            return None
        return bound_function(name, args)

    # -- operators -----------------------------------------------------------

    def _bound_binary(self, expr: Binary) -> Interval | None:
        if expr.op not in ARITHMETIC:
            return None  # boolean-valued (scores are numeric) or MOD
        left = self.bound(expr.left)
        right = self.bound(expr.right)
        if left is None or right is None:
            return None
        return bound_arithmetic(expr.op, left, right)

    def _bound_unary(self, expr: Unary) -> Interval | None:
        if expr.op is UnaryOp.NOT:
            return None
        inner = self.bound(expr.operand)
        return -inner if inner is not None else None


# -- interval semantics shared with the compiled bounds ------------------------
#
# The evaluator above resolves leaves from a PartialMatchView; the compiled
# per-shape bounds of repro.ranking.pruning resolve them from a run's
# bindings and aggregate states.  Everything past the leaves is these
# functions, so the two can differ only in what they know, never in how
# they combine it.

#: ``(count, total, minimum, maximum, first, last)`` of the values a
#: variable has observed so far (only ever non-empty).
Observed = tuple[int, float, float, float, float, float]

#: binary operators with interval semantics (the rest are boolean or MOD).
ARITHMETIC = frozenset({BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.DIV})

#: built-in functions bounded from their arguments' bounds alone.
NUMERIC_FUNCTIONS = frozenset(
    {"abs", "round", "floor", "ceil", "sqrt", "log", "exp", "sign", "min2", "max2"}
)


def numeric_exact(value: Any) -> Interval | None:
    """The degenerate interval of a bound numeric value, else ``None``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        return None
    try:
        return Interval.exact(float(value))
    except OverflowError:  # an int past a float's range
        return None


def bound_arithmetic(op: BinaryOp, left: Interval, right: Interval) -> Interval | None:
    """``left op right`` for one of :data:`ARITHMETIC`; ``None`` where the
    operands may meet in a NaN (``inf - inf``, ``0 * inf``, ``inf / inf``)."""
    if op is BinaryOp.ADD:
        if left.hi == _INF and right.lo == -_INF or left.lo == -_INF and right.hi == _INF:
            return None
        return left + right
    if op is BinaryOp.SUB:
        if left.hi == right.hi == _INF or left.lo == right.lo == -_INF:
            return None
        return left - right
    if op is BinaryOp.MUL:
        if left.lo <= 0 <= left.hi and _unbounded(right) or (
            right.lo <= 0 <= right.hi and _unbounded(left)
        ):
            return None
        return left * right
    return None if _unbounded(left) and _unbounded(right) else left / right


def _unbounded(interval: Interval) -> bool:
    return interval.lo == -_INF or interval.hi == _INF


def bound_function(name: str, args: Sequence[Interval]) -> Interval | None:
    """One of :data:`NUMERIC_FUNCTIONS` over its arguments' bounds."""
    inner = args[0]
    if name == "abs":
        return inner.abs()
    if name == "sign":
        return Interval(
            float((inner.lo > 0) - (inner.lo < 0)),
            float((inner.hi > 0) - (inner.hi < 0)),
        )
    if name == "min2":
        return Interval(min(inner.lo, args[1].lo), min(inner.hi, args[1].hi))
    if name == "max2":
        return Interval(max(inner.lo, args[1].lo), max(inner.hi, args[1].hi))
    fn = {
        "round": lambda x: float(round(x)) if math.isfinite(x) else x,
        "floor": lambda x: float(math.floor(x)) if math.isfinite(x) else x,
        "ceil": lambda x: float(math.ceil(x)) if math.isfinite(x) else x,
        "sqrt": math.sqrt,
        "log": math.log,
        "exp": _safe_exp,
    }[name]
    return inner.monotone_map(fn)


def bound_duration(so_far: float, cap: float | None) -> Interval:
    """``duration()`` of a run spanning ``so_far`` under a window cap."""
    hi = cap if cap is not None else _INF
    return Interval(so_far, max(hi, so_far))


def bound_count(observed: int, is_open: bool, cap: int | None) -> Interval:
    """``count(v)`` having seen ``observed`` elements, ``cap`` at most."""
    if not is_open:
        return Interval.exact(float(max(observed, 0)))
    lo = float(max(observed, 1))  # Kleene-plus bindings are non-empty
    hi = float(cap) if cap is not None else _INF
    return Interval(min(lo, hi) if hi < lo else lo, max(hi, lo))


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def bound_aggregate(
    func: str,
    observed: Observed | None,
    domain: Interval | None,
    is_open: bool,
    count: Interval,
) -> Interval | None:
    """Bound an aggregate given the observed values and a domain for future ones."""
    if observed is not None and observed[1] != observed[1]:
        return None  # a NaN total: a NaN element, or inf - inf
    if not is_open:
        if observed is None:
            return None
        n, total, minimum, maximum, first, last = observed
        exact = {
            "sum": total,
            "avg": total / n,
            "min": minimum,
            "max": maximum,
            "first": first,
            "last": last,
        }.get(func)
        return Interval.exact(exact) if exact is not None else None

    if func == "first":
        if observed is not None:
            return Interval.exact(observed[4])
        return domain
    if func == "last":
        return domain  # future elements may replace the last
    if domain is None:
        return None
    if func == "min":
        hi = observed[2] if observed is not None else domain.hi
        return Interval(min(domain.lo, hi), hi)
    if func == "max":
        lo = observed[3] if observed is not None else domain.lo
        return Interval(lo, max(domain.hi, lo))
    if func == "avg":
        if observed is None:
            return domain
        return Interval(min(domain.lo, observed[2]), max(domain.hi, observed[3]))
    if func == "sum":
        n, partial = (observed[0], observed[1]) if observed is not None else (0, 0)
        remaining = count - Interval.exact(float(n))
        remaining = Interval(max(remaining.lo, 0.0), max(remaining.hi, 0.0))
        future = remaining * domain
        return Interval.exact(partial) + future
    return None

"""Incremental aggregate state for Kleene bindings.

Queries that aggregate over a Kleene variable (``avg(bs.price)`` in a
``WHERE``, ``RANK BY``, or pruning bound) would otherwise rescan the
binding list on every evaluation — O(n²) per run over the variable's
lifetime.  :class:`AggregateState` maintains count/sum/min/max/first/last
per referenced attribute in O(1) per accepted element, and the run exposes
it to expression evaluation through ``EvalContext.agg_lookup``.

States are immutable tuples (:class:`~typing.NamedTuple`): ``accept``
returns a new state, built positionally with ``tuple.__new__`` like the
runs that hold it, so cloned runs share history for free (matching the
engine's copy-on-extend run design).

A lookup serves only the reference evaluator's value
(:func:`repro.language.expressions.compile_expr` over the binding list),
bit for bit; otherwise it declines, and the evaluator falls back to the
reference — which raises, or computes, exactly as with tracking off.  An
element that lacks the attribute or holds a non-number makes that
attribute *inexact*; a float ``sum``/``avg`` is declined where ``sum()``
compensates (Neumaier, since CPython 3.12) and a running total does not,
or is NaN (whose payload is the adder's choice), or overflowed a float
(``None``; ``min``/``max``/``first``/``last`` are still served).
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple

from repro.events.event import Event
from repro.language.ast_nodes import Aggregate, Expr, iter_subexpressions

_new = tuple.__new__

#: whether ``sum()`` adds floats one by one, as the running total does
_RUNNING_FLOAT_SUM = sys.version_info < (3, 12)


class AttrAggregates(NamedTuple):
    """Running aggregates for one attribute of one Kleene variable."""

    #: starts at the int ``0`` like ``sum()``, so an int attribute sums to an
    #: int; ``None`` once the sum overflowed a float
    total: float | None = 0
    minimum: float | None = None
    maximum: float | None = None
    first: Any = None
    last: Any = None
    #: every element so far held a number; once not, nothing here is served
    exact: bool = True

    def accept(self, value: Any) -> AttrAggregates:
        if not self.exact:
            return self
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return INEXACT
        # ``min``/``max`` keep the incumbent unless strictly beaten — the
        # builtins' rule, which also places a NaN where they would.
        minimum, maximum = self.minimum, self.maximum
        total = self.total
        if total is not None:
            try:
                total += value
            except OverflowError:  # an int past a float's range
                total = None
        return _new(
            AttrAggregates,
            (
                total,
                value if minimum is None or value < minimum else minimum,
                value if maximum is None or value > maximum else maximum,
                value if self.last is None else self.first,
                value,
                True,
            ),
        )


#: what an attribute's aggregates become once an element made them inexact.
INEXACT = AttrAggregates(exact=False)
#: an attribute's aggregates before its first element.
_UNSEEN = AttrAggregates()


class AggregateState(NamedTuple):
    """All running aggregates for one Kleene variable of one run."""

    count: int = 0  # type: ignore[assignment]  # shadows tuple.count
    attrs: Mapping[str, AttrAggregates] = MappingProxyType({})
    tracked: frozenset[str] = frozenset()

    @classmethod
    def for_attrs(cls, attrs: Iterable[str]) -> AggregateState:
        tracked = frozenset(attrs)
        return _new(cls, (0, {a: _UNSEEN for a in tracked}, tracked))

    def accept(self, event: Event) -> AggregateState:
        """Return a new state including ``event``."""
        tracked = self.tracked
        attrs = self.attrs
        if tracked:
            new_attrs = dict(attrs)
            payload = event.payload
            for attr in tracked:
                # a missing attribute makes the reference raise: inexact
                new_attrs[attr] = (
                    new_attrs[attr].accept(payload[attr])
                    if attr in payload
                    else INEXACT
                )
            attrs = new_attrs
        return _new(AggregateState, (self.count + 1, attrs, tracked))

    def lookup(self, func: str, attr: str | None) -> Any:
        """Serve one aggregate value, or ``None`` when unavailable.

        ``None`` makes the expression evaluator fall back to recomputing
        from the binding list, so partial tracking is always safe.
        """
        if func in ("count", "len"):
            return self.count if self.count > 0 else None
        if attr is None or attr not in self.attrs or self.count == 0:
            return None
        agg = self.attrs[attr]
        if not agg.exact:
            return None
        if func in ("sum", "avg"):
            total = agg.total
            if total is None or isinstance(total, float) and (
                total != total or not _RUNNING_FLOAT_SUM
            ):
                return None
            if func == "sum":
                return total
            try:
                return total / self.count
            except OverflowError:  # an int sum past a float's range
                return None
        if func == "min":
            return agg.minimum
        if func == "max":
            return agg.maximum
        if func == "first":
            return agg.first
        if func == "last":
            return agg.last
        return None


def needed_aggregates(exprs: Iterable[Expr]) -> frozenset[tuple[str, str, str | None]]:
    """Collect every ``(var, func, attr)`` aggregate used by ``exprs``."""
    needed: set[tuple[str, str, str | None]] = set()
    for expr in exprs:
        for node in iter_subexpressions(expr):
            if isinstance(node, Aggregate):
                needed.add((node.var, node.func, node.attr))
    return frozenset(needed)


def tracked_attrs_by_var(
    needed: Iterable[tuple[str, str, str | None]],
) -> dict[str, frozenset[str]]:
    """Group the attributes each Kleene variable must track."""
    grouped: dict[str, set[str]] = {}
    for var, _func, attr in needed:
        grouped.setdefault(var, set())
        if attr is not None:
            grouped[var].add(attr)
    return {var: frozenset(attrs) for var, attrs in grouped.items()}

"""Expression compilation and evaluation.

``WHERE`` predicates and ``RANK BY`` keys share one expression AST; this
module compiles AST nodes into nested closures evaluated against an
:class:`EvalContext` describing a (partial or complete) match.

Evaluation modes
----------------

*Complete-match* evaluation (rank keys, final predicates): every referenced
variable is bound in ``ctx.bindings``; Kleene variables are bound to
non-empty lists and may only be referenced through aggregates.

*Incremental* evaluation (per-element Kleene predicates, predicates checked
the moment a variable binds): the variable currently being bound is named by
``ctx.current_var`` and its candidate event is ``ctx.current_event`` —
``v.attr`` then reads from the candidate.  ``prev(v.attr)`` reads the last
already-accepted element; for the *first* element there is no predecessor
and the node raises :class:`VacuousPredicate`, which the matcher treats as
"predicate passes" (standard SASE+ first-iteration semantics).  Aggregates
over the current Kleene variable cover the already-accepted elements,
excluding the candidate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, TypeVar

from repro.events.event import Event
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
from repro.language.errors import EvaluationError

Binding = Event | Sequence[Event]
#: Optional fast path for aggregates: ``(var, func, attr) -> value | None``.
AggLookup = Callable[[str, str, str | None], Any]


class VacuousPredicate(Exception):
    """Signals that a predicate has no defined value yet and must pass.

    Raised when ``prev(v.attr)`` or an aggregate over the current Kleene
    variable is evaluated for the variable's first element.
    """


@dataclass(slots=True)
class EvalContext:
    """Everything a compiled expression needs to evaluate.

    Parameters
    ----------
    bindings:
        Accepted bindings so far: variable name → event (singleton) or
        sequence of events (Kleene).
    current_var / current_event:
        The variable being bound right now and its candidate event, for
        incremental evaluation; ``None`` for complete-match evaluation.
    agg_lookup:
        Optional incremental-aggregate fast path; when it returns a
        non-``None`` value that value is used instead of recomputing from
        the binding list.
    """

    bindings: Mapping[str, Binding] = field(default_factory=dict)
    current_var: str | None = None
    current_event: Event | None = None
    agg_lookup: AggLookup | None = None

    def event_of(self, var: str) -> Event:
        """The singleton event bound to ``var`` (or the current candidate)."""
        if var == self.current_var and self.current_event is not None:
            return self.current_event
        binding = self.bindings.get(var)
        if binding is None:
            raise EvaluationError(f"variable {var!r} is not bound")
        if isinstance(binding, Event):
            return binding
        raise EvaluationError(
            f"variable {var!r} is a Kleene binding; reference it through an "
            f"aggregate (avg/sum/min/max/count/first/last)"
        )

    def events_of(self, var: str) -> Sequence[Event]:
        """The accepted elements of Kleene variable ``var`` (may be empty)."""
        binding = self.bindings.get(var)
        if binding is None:
            return ()
        if isinstance(binding, Event):
            return (binding,)
        return binding

    def all_events(self) -> list[Event]:
        """Every bound event, plus the current candidate, in binding order."""
        out: list[Event] = []
        for binding in self.bindings.values():
            if isinstance(binding, Event):
                out.append(binding)
            else:
                out.extend(binding)
        if self.current_event is not None:
            out.append(self.current_event)
        return out

    def duration(self) -> float:
        """Stream-time span between the earliest and latest bound event."""
        events = self.all_events()
        if not events:
            raise EvaluationError("duration() is undefined: no events bound")
        timestamps = [e.timestamp for e in events]
        return max(timestamps) - min(timestamps)


Evaluator = Callable[[EvalContext], Any]

#: What a compiled closure reads: an :class:`EvalContext`, or for an
#: event-level check the candidate event.  The operator combinators below
#: serve both compilers.
_C = TypeVar("_C")
_Closure = Callable[[_C], Any]


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_expr(expr: Expr) -> Evaluator:
    """Compile ``expr`` into an evaluator closure.

    The closure raises :class:`EvaluationError` on runtime type errors and
    :class:`VacuousPredicate` when an incremental predicate has no defined
    value yet (see module docstring).
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, AttrRef):
        return _compile_attr_ref(expr)
    if isinstance(expr, PrevRef):
        return _compile_prev_ref(expr)
    if isinstance(expr, Aggregate):
        return _compile_aggregate(expr)
    if isinstance(expr, FuncCall) and expr.name == "duration":
        return lambda ctx: ctx.duration()
    if isinstance(expr, FuncCall) and expr.name in ("timestamp", "ts"):
        return _compile_timestamp(expr)
    if isinstance(expr, FuncCall):
        return _compile_func(expr, compile_expr)
    if isinstance(expr, VarRef):
        raise EvaluationError(
            f"bare variable reference {expr.var!r} is not a value; "
            f"use v.attr, timestamp(v), or count(v)"
        )
    if isinstance(expr, Binary):
        return _compile_binary(expr, compile_expr)
    if isinstance(expr, Unary):
        return _compile_unary(expr, compile_expr)
    raise EvaluationError(f"cannot compile expression node {type(expr).__name__}")


def _compile_attr_ref(expr: AttrRef) -> Evaluator:
    var, attr = expr.var, expr.attr

    def evaluate(ctx: EvalContext) -> Any:
        event = ctx.event_of(var)
        try:
            return event[attr]
        except KeyError as exc:
            raise EvaluationError(str(exc)) from None

    return evaluate


def _compile_prev_ref(expr: PrevRef) -> Evaluator:
    var, attr = expr.var, expr.attr

    def evaluate(ctx: EvalContext) -> Any:
        if var != ctx.current_var:
            raise EvaluationError(
                f"prev({var}.{attr}) is only valid while binding {var!r}"
            )
        accepted = ctx.events_of(var)
        if not accepted:
            raise VacuousPredicate()
        try:
            return accepted[-1][attr]
        except KeyError as exc:
            raise EvaluationError(str(exc)) from None

    return evaluate


def _aggregate_values(events: Sequence[Event], attr: str) -> list[Any]:
    try:
        return [e[attr] for e in events]
    except KeyError as exc:
        raise EvaluationError(str(exc)) from None


def _compile_aggregate(expr: Aggregate) -> Evaluator:
    func, var, attr = expr.func, expr.var, expr.attr

    def evaluate(ctx: EvalContext) -> Any:
        if ctx.agg_lookup is not None:
            cached = ctx.agg_lookup(var, func, attr)
            if cached is not None:
                return cached
        events = ctx.events_of(var)
        incremental_on_self = var == ctx.current_var
        if not events:
            if incremental_on_self:
                raise VacuousPredicate()
            raise EvaluationError(
                f"aggregate {func}({var}) over an empty binding"
            )
        if func in ("count", "len"):
            return len(events)
        assert attr is not None
        values = _aggregate_values(events, attr)
        if func in ("sum", "avg"):
            try:
                total = sum(values)
                return total if func == "sum" else total / len(values)
            except OverflowError as exc:  # an int past a float's range
                raise EvaluationError(f"{func}({var}.{attr}): {exc}") from None
        if func == "min":
            return min(values)
        if func == "max":
            return max(values)
        if func == "first":
            return values[0]
        if func == "last":
            return values[-1]
        raise EvaluationError(f"unknown aggregate {func!r}")

    return evaluate


_MATH_FUNCS: dict[str, Callable[[float], float]] = {
    "abs": abs,
    "round": round,
    "floor": math.floor,
    "ceil": math.ceil,
    "sqrt": math.sqrt,
    "log": math.log,
    "exp": math.exp,
    "sign": lambda x: (x > 0) - (x < 0),
}


def _compile_timestamp(expr: FuncCall) -> Evaluator:
    arg = expr.args[0]
    if not isinstance(arg, VarRef):
        raise EvaluationError(f"{expr.name}() expects a bare pattern variable")
    var = arg.var
    return lambda ctx: ctx.event_of(var).timestamp


def _compile_func(
    expr: FuncCall, sub: Callable[[Expr], _Closure[_C]]
) -> _Closure[_C]:
    """A math function call; ``sub`` compiles the arguments."""
    name = expr.name
    if name in _MATH_FUNCS:
        inner = sub(expr.args[0])
        fn = _MATH_FUNCS[name]

        def evaluate_math(ctx: _C) -> Any:
            value = inner(ctx)
            _require_number(value, name)
            try:
                return fn(value)
            except ValueError as exc:
                raise EvaluationError(f"{name}({value!r}): {exc}") from exc

        return evaluate_math
    if name in ("min2", "max2"):
        left = sub(expr.args[0])
        right = sub(expr.args[1])
        picker = min if name == "min2" else max

        def evaluate_pick(ctx: _C) -> Any:
            a, b = left(ctx), right(ctx)
            _require_number(a, name)
            _require_number(b, name)
            return picker(a, b)

        return evaluate_pick
    raise EvaluationError(f"unknown function {name!r}")


def _require_number(value: Any, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"{where}: expected a number, got {value!r}")


def _require_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise EvaluationError(f"{where}: expected a boolean, got {value!r}")
    return value


_ARITH = {BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.DIV, BinaryOp.MOD}
_ORDERING: dict[BinaryOp, Callable[[Any, Any], bool]] = {
    BinaryOp.LT: operator.lt,
    BinaryOp.LTE: operator.le,
    BinaryOp.GT: operator.gt,
    BinaryOp.GTE: operator.ge,
}


def _compile_binary(
    expr: Binary, sub: Callable[[Expr], _Closure[_C]]
) -> _Closure[_C]:
    op = expr.op

    if op is BinaryOp.AND:
        left, right = sub(expr.left), sub(expr.right)

        def eval_and(ctx: _C) -> bool:
            if not _require_bool(left(ctx), "AND"):
                return False
            return _require_bool(right(ctx), "AND")

        return eval_and

    if op is BinaryOp.OR:
        left, right = sub(expr.left), sub(expr.right)

        def eval_or(ctx: _C) -> bool:
            if _require_bool(left(ctx), "OR"):
                return True
            return _require_bool(right(ctx), "OR")

        return eval_or

    left, right = sub(expr.left), sub(expr.right)

    if op in _ARITH:
        return _compile_arith(op, left, right)
    if op is BinaryOp.EQ:
        return lambda ctx: left(ctx) == right(ctx)
    if op is BinaryOp.NEQ:
        return lambda ctx: left(ctx) != right(ctx)
    if op in _ORDERING:
        return _compile_ordering(op, left, right)
    raise EvaluationError(f"unknown binary operator {op}")


def _compile_arith(
    op: BinaryOp, left: _Closure[_C], right: _Closure[_C]
) -> _Closure[_C]:
    def evaluate(ctx: _C) -> float:
        a, b = left(ctx), right(ctx)
        _require_number(a, op.value)
        _require_number(b, op.value)
        if op is BinaryOp.ADD:
            return a + b
        if op is BinaryOp.SUB:
            return a - b
        if op is BinaryOp.MUL:
            return a * b
        if op is BinaryOp.DIV:
            if b == 0:
                raise EvaluationError("division by zero")
            return a / b
        if b == 0:
            raise EvaluationError("modulo by zero")
        return a % b

    return evaluate


def _compile_ordering(
    op: BinaryOp, left: _Closure[_C], right: _Closure[_C]
) -> _Closure[_C]:
    compare = _ORDERING[op]

    def evaluate(ctx: _C) -> bool:
        a, b = left(ctx), right(ctx)
        both_numbers = (
            not isinstance(a, bool)
            and not isinstance(b, bool)
            and isinstance(a, (int, float))
            and isinstance(b, (int, float))
        )
        both_strings = isinstance(a, str) and isinstance(b, str)
        if not (both_numbers or both_strings):
            raise EvaluationError(
                f"{op.value}: operands must both be numbers or both strings, "
                f"got {a!r} and {b!r}"
            )
        return compare(a, b)

    return evaluate


def _compile_unary(expr: Unary, sub: Callable[[Expr], _Closure[_C]]) -> _Closure[_C]:
    inner = sub(expr.operand)
    if expr.op is UnaryOp.NEG:

        def eval_neg(ctx: _C) -> float:
            value = inner(ctx)
            _require_number(value, "unary -")
            return -value

        return eval_neg

    def eval_not(ctx: _C) -> bool:
        return not _require_bool(inner(ctx), "NOT")

    return eval_not


def evaluate_predicate(evaluator: Evaluator, ctx: EvalContext) -> bool:
    """Evaluate a compiled predicate, treating vacuity as a pass.

    Returns ``True``/``False``; raises :class:`EvaluationError` if the
    expression does not produce a boolean.
    """
    try:
        result = evaluator(ctx)
    except VacuousPredicate:
        return True
    return _require_bool(result, "WHERE predicate")


# ---------------------------------------------------------------------------
# event-level compilation
# ---------------------------------------------------------------------------

#: a self-contained predicate as a check of the candidate event alone.
EventCheck = Callable[[Event], bool]

def compile_event_predicate(expr: Expr) -> EventCheck:
    """A *self-contained* predicate compiled against the candidate event.

    Every variable such a predicate names is its anchor, and nothing it
    reads depends on a run (see
    :func:`repro.language.fingerprint.self_contained`), so the event is
    the whole context: the closure reads ``event.payload`` directly
    instead of building an :class:`EvalContext` per evaluation.  It
    returns what ``evaluate_predicate(compile_expr(expr), ctx)`` returns
    for a context binding the anchor to the event, and raises the same
    :class:`EvaluationError`, with the same message.
    """
    fast = _compare_attr_with_number(expr)
    if fast is not None:
        return fast
    evaluate = _compile_on_event(expr)

    def check(event: Event) -> bool:
        return _require_bool(evaluate(event), "WHERE predicate")

    return check


def _compile_on_event(expr: Expr) -> _Closure[Event]:
    """:func:`compile_expr` for closures that take the event itself."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda event: value
    if isinstance(expr, AttrRef):
        return _event_attr(expr.attr)
    if isinstance(expr, FuncCall) and expr.name in ("timestamp", "ts"):
        return lambda event: event.timestamp  # of the anchor: the event
    if isinstance(expr, FuncCall) and expr.name != "duration":
        return _compile_func(expr, _compile_on_event)
    if isinstance(expr, Binary):
        return _compile_binary(expr, _compile_on_event)
    if isinstance(expr, Unary):
        return _compile_unary(expr, _compile_on_event)
    raise ValueError(
        f"{type(expr).__name__} reads more than the candidate event: "
        f"not a self-contained predicate"
    )


def _event_attr(attr: str) -> Callable[[Event], Any]:
    def read(event: Event) -> Any:
        try:
            return event.payload[attr]
        except KeyError:
            pass
        try:
            return event[attr]  # the missing-attribute message
        except KeyError as exc:
            raise EvaluationError(str(exc)) from None

    return read


def attr_threshold(expr: Expr) -> tuple[str, BinaryOp, int | float] | None:
    """``(attr, op, number)`` when ``expr`` is ``v.attr <op> number`` with
    an ordering ``op`` and an ``int``/``float`` literal — the shape
    :func:`compile_event_predicate` compares inline — else ``None``."""
    if (
        isinstance(expr, Binary)
        and expr.op in _ORDERING
        and isinstance(expr.left, AttrRef)
        and isinstance(expr.right, Literal)
        and type(expr.right.value) in (int, float)
    ):
        return expr.left.attr, expr.op, expr.right.value
    return None


def _compare_attr_with_number(expr: Expr) -> EventCheck | None:
    """``v.attr <op> number``: a numeric attribute value is compared
    inline; anything else takes the general ordering path, which raises
    what it always raises."""
    shape = attr_threshold(expr)
    if shape is None:
        return None
    name, op, bound = shape
    compare = _ORDERING[op]
    general = _compile_ordering(op, _event_attr(name), lambda event: bound)

    def check(event: Event) -> bool:
        try:
            value = event.payload[name]
        except KeyError:
            value = None
        kind = type(value)
        if kind is int or kind is float:
            return compare(value, bound)
        return _require_bool(general(event), "WHERE predicate")

    return check

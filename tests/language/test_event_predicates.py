"""Event-level predicate checks agree with the context evaluator.

A self-contained predicate (every variable it names is its anchor, and it
reads no run state) is compiled twice: once into the context closures of
``compile_expr`` and once, by ``compile_event_predicate``, against the
candidate event alone.  The shared predicate index and the stage gates
evaluate the second; it must return the same bool, or raise an
``EvaluationError`` with the same message, on every payload.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.event import Event
from repro.language.ast_nodes import (
    AttrRef,
    Binary,
    BinaryOp,
    FuncCall,
    Literal,
    Unary,
    UnaryOp,
    VarRef,
)
from repro.language.errors import EvaluationError
from repro.language.expressions import (
    EvalContext,
    compile_event_predicate,
    compile_expr,
    evaluate_predicate,
)
from repro.language.fingerprint import self_contained
from repro.language.parser import parse_query
from repro.language.semantics import analyze

ANCHOR = "a"
ATTRS = ("x", "y", "s", "flag")

literals = st.one_of(
    st.integers(-5, 5),
    st.sampled_from((0.0, 1.5, -2.5, math.nan, math.inf, 10**17, 1e17)),
    st.sampled_from(("", "ab", "b")),
    st.booleans(),
).map(Literal)
attrs = st.sampled_from(ATTRS).map(lambda name: AttrRef(ANCHOR, name))
ORDERING = (BinaryOp.LT, BinaryOp.LTE, BinaryOp.GT, BinaryOp.GTE)
EQUALITY = (BinaryOp.EQ, BinaryOp.NEQ)
ARITH = (BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.DIV, BinaryOp.MOD)


def _values(children):
    return st.one_of(
        st.builds(Binary, st.sampled_from(ARITH), children, children),
        st.builds(Unary, st.just(UnaryOp.NEG), children),
        st.builds(lambda arg: FuncCall("abs", (arg,)), children),
        st.just(FuncCall("timestamp", (VarRef(ANCHOR),))),
    )


values = st.recursive(st.one_of(literals, attrs), _values, max_leaves=4)
comparisons = st.builds(
    Binary, st.sampled_from(ORDERING + EQUALITY), values, values
)


def _predicates(children):
    return st.one_of(
        st.builds(Binary, st.sampled_from((BinaryOp.AND, BinaryOp.OR)), children, children),
        st.builds(Unary, st.just(UnaryOp.NOT), children),
    )


predicates = st.recursive(
    st.one_of(comparisons, attrs, literals), _predicates, max_leaves=4
)

attribute_values = st.one_of(
    st.integers(-5, 5),
    st.sampled_from((0.0, 2.5, -1.0, math.nan, math.inf, 10**17)),
    st.booleans(),
    st.sampled_from(("", "ab", "z")),
)
payloads = st.dictionaries(st.sampled_from(ATTRS), attribute_values, max_size=4)


def outcome(thunk):
    try:
        return ("value", thunk())
    except EvaluationError as exc:
        return ("error", str(exc))
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def same(left, right):
    """Outcomes agree; NaN never equals itself, so compare its text."""
    return repr(left) == repr(right)


class TestEventLevelAgreement:
    @given(expr=predicates, payload=payloads, ts=st.sampled_from((0.0, 3.0, 7.5)))
    @settings(max_examples=400, deadline=None)
    def test_closure_agrees_with_the_context_evaluator(self, expr, payload, ts):
        assert self_contained(expr, ANCHOR)
        event = Event("A", ts, **payload)
        ctx = EvalContext(bindings={}, current_var=ANCHOR, current_event=event)
        expected = outcome(lambda: evaluate_predicate(compile_expr(expr), ctx))
        got = outcome(lambda: compile_event_predicate(expr)(event))
        assert same(got, expected), (expr, payload)

    @given(
        op=st.sampled_from(ORDERING),
        bound=st.sampled_from((3, 2.5, -1, 10**17, 1e17)),
        attr_first=st.booleans(),
        payload=payloads,
    )
    @settings(max_examples=200, deadline=None)
    def test_attribute_against_number_fast_path(self, op, bound, attr_first, payload):
        attr, literal = AttrRef(ANCHOR, "x"), Literal(bound)
        expr = Binary(op, attr, literal) if attr_first else Binary(op, literal, attr)
        event = Event("A", 1.0, **payload)
        ctx = EvalContext(bindings={}, current_var=ANCHOR, current_event=event)
        expected = outcome(lambda: evaluate_predicate(compile_expr(expr), ctx))
        got = outcome(lambda: compile_event_predicate(expr)(event))
        assert same(got, expected), (expr, payload)


def test_analysis_attaches_checks_to_fingerprinted_predicates_only():
    analyzed = analyze(
        parse_query(
            "PATTERN SEQ(Buy b, Sell s) WHERE b.volume > 5 AND s.price > b.price "
            "WITHIN 5 EVENTS"
        )
    )
    specs = [spec for specs in analyzed.predicates_at.values() for spec in specs]
    assert {spec.fingerprint is not None for spec in specs} == {True, False}
    for spec in specs:
        assert (spec.event_check is not None) == (spec.fingerprint is not None)
    (gate,) = [spec for spec in specs if spec.event_check is not None]
    assert gate.event_check(Event("Buy", 0.0, volume=6)) is True
    missing = Event("Buy", 0.0, price=1.0)
    try:
        gate.event_check(missing)
    except EvaluationError as exc:
        message = str(exc)
    ctx = EvalContext(bindings={}, current_var="b", current_event=missing)
    try:
        evaluate_predicate(gate.evaluator, ctx)
    except EvaluationError as exc:
        assert str(exc) == message

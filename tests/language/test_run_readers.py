"""Differential tests: run readers against the context evaluator.

:func:`~repro.language.semantics.total_reader` compiles an expression
that :func:`~repro.language.semantics._cut_kind` accepts into a direct
read of the run: the candidate event's payload for the current variable,
the bindings' payloads for bound ones, the registers for aggregates.  An
attribute the registry declares required is read unchecked; any other is
checked, and a reader that finds it absent or of another type raises
``LookupError`` (its consumer then asks the context evaluator).  Over a
typed registry, every value a reader returns must be the one
``compile_expr`` computes under an ``EvalContext`` of the same bindings —
type, sign and NaN included —, a reader over required attributes only
must always return one, and every expression it refuses must be refused
with ``_cut_kind``'s reason.

Generated values cover ints, floats (NaN, ±inf, -0.0), ints too large for
a float, strs (read only by ``==``/``!=``), and, for an undeclared
attribute, bools, ``None`` and absence.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Event
from repro.engine.aggregates import AggregateState
from repro.events.schema import AttributeSpec, EventSchema, SchemaRegistry
from repro.language import semantics
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
)
from repro.language.expressions import EvalContext, compile_expr
from repro.language.parser import parse_query
from repro.language.semantics import PROVEN, Reads, analyze, total_reader

REGISTRY = SchemaRegistry(
    [
        EventSchema(
            "A",
            (
                AttributeSpec("i", "int"),
                AttributeSpec("f", "float"),
                AttributeSpec("s", "str"),
                AttributeSpec("n", "float", required=False),
                AttributeSpec("t", "bool"),
            ),
        )
    ]
)
#: ``a`` is bound, ``k`` a complete Kleene variable (its aggregates are
#: registers), ``b`` the current variable: its attributes read the candidate.
ANALYZED = analyze(
    parse_query("PATTERN SEQ(A a, A k+, A b) WITHIN 10 EVENTS"), REGISTRY
)
READS = Reads(ANALYZED, REGISTRY)
BOUND, CURRENT = "a", "b"
VARS = st.sampled_from([BOUND, CURRENT])

SMALL_INTS = st.one_of(st.integers(-5, 5), st.integers(-(2**70), 2**70))
#: past a float's range: ``+``/``-``/``*``/ordering against a float raise
#: or compare exactly, alike on both paths
INTS = st.one_of(SMALL_INTS, st.sampled_from([2**1100, -(2**1100)]))
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -1.5]),
)
NUMBERS = st.one_of(INTS, FLOATS)
STRS = st.sampled_from(["", "x", "y", "xy", "é"])


def payloads() -> st.SearchStrategy[dict]:
    """A payload the registry accepts: ``f`` is a float or an int (within
    a float's range: a running register total of both would overflow),
    ``n`` may be absent, and the undeclared ``u`` may be anything."""
    return st.fixed_dictionaries(
        {"i": INTS, "f": st.one_of(SMALL_INTS, FLOATS), "s": STRS, "t": st.booleans()},
        optional={
            "n": NUMBERS,
            "u": st.one_of(NUMBERS, STRS, st.booleans(), st.none()),
        },
    )


# -- accepted expressions, by value kind -----------------------------------------

NUMBER_LEAVES = st.one_of(
    NUMBERS.map(Literal),
    st.builds(AttrRef, VARS, st.sampled_from(["i", "f", "n", "u"])),
    st.builds(Aggregate, st.sampled_from(["count", "len"]), st.just("k"), st.none()),
    st.builds(
        Aggregate,
        st.sampled_from(["max", "min", "first", "last"]),
        st.just("k"),
        st.sampled_from(["i", "f"]),
    ),
)
STR_LEAVES = st.one_of(STRS.map(Literal), st.builds(AttrRef, VARS, st.sampled_from(["s", "u"])))


def _numbers(inner: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
    return st.one_of(
        st.builds(Binary, st.sampled_from([BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL]), inner, inner),
        st.builds(Unary, st.just(UnaryOp.NEG), inner),
        st.builds(lambda x: FuncCall("abs", (x,)), inner),
        st.builds(lambda name, x, y: FuncCall(name, (x, y)), st.sampled_from(["min2", "max2"]), inner, inner),
    )


NUMBER_EXPRS = st.recursive(NUMBER_LEAVES, _numbers, max_leaves=6)
ORDERING = [BinaryOp.LT, BinaryOp.LTE, BinaryOp.GT, BinaryOp.GTE]


def _bools(inner: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
    return st.one_of(
        st.builds(Binary, st.sampled_from([BinaryOp.AND, BinaryOp.OR]), inner, inner),
        st.builds(Unary, st.just(UnaryOp.NOT), inner),
    )


BOOL_LEAVES = st.one_of(
    st.booleans().map(Literal),
    st.builds(AttrRef, VARS, st.sampled_from(["t", "u"])),
    st.builds(Binary, st.sampled_from(ORDERING), NUMBER_EXPRS, NUMBER_EXPRS),
    st.builds(
        Binary,
        st.sampled_from([BinaryOp.EQ, BinaryOp.NEQ]),
        st.one_of(NUMBER_EXPRS, STR_LEAVES),
        st.one_of(NUMBER_EXPRS, STR_LEAVES),
    ),
)
BOOL_EXPRS = st.recursive(BOOL_LEAVES, _bools, max_leaves=4)
#: (expression, kinds) as a guard (a bool) and a rank key (any kind) ask
ACCEPTED = st.one_of(
    st.tuples(BOOL_EXPRS, st.just(("bool",))),
    st.tuples(st.one_of(NUMBER_EXPRS, BOOL_EXPRS, STR_LEAVES), st.just(semantics._KINDS)),
)

# -- expressions with a node no reader may compile ------------------------------

POISON = st.sampled_from(
    [
        Binary(BinaryOp.DIV, AttrRef(BOUND, "f"), AttrRef(CURRENT, "f")),
        Binary(BinaryOp.MOD, AttrRef(BOUND, "i"), Literal(2)),
        Binary(BinaryOp.LT, AttrRef(BOUND, "s"), AttrRef(CURRENT, "s")),  # str order
        Aggregate("sum", "k", "f"),
        Aggregate("max", "k", "n"),  # not required: the register may skip
        Aggregate("max", "b", "f"),  # not a Kleene variable
        PrevRef("k", "i"),
        FuncCall("sqrt", (AttrRef(BOUND, "f"),)),
        Binary(BinaryOp.ADD, AttrRef(BOUND, "s"), Literal(1)),  # a str in arithmetic
        Binary(BinaryOp.MUL, AttrRef(CURRENT, "t"), Literal(2)),  # a bool in arithmetic
        Unary(UnaryOp.NOT, AttrRef(BOUND, "i")),  # a number under NOT
    ]
)
MIXED = st.one_of(
    POISON,
    st.builds(Binary, st.sampled_from([BinaryOp.AND, BinaryOp.EQ, BinaryOp.ADD]), POISON, NUMBER_EXPRS),
    st.builds(Binary, st.sampled_from([BinaryOp.OR, BinaryOp.NEQ, BinaryOp.MUL]), BOOL_EXPRS, POISON),
)


def held_and_candidate(a: dict, elements: list[dict], b: dict):
    """The run a guard reads (bindings and registers) and its candidate."""
    bound = Event("A", 1.0, **a)
    kleene = tuple(Event("A", 2.0 + i, **p) for i, p in enumerate(elements))
    state = AggregateState.for_attrs(("i", "f"))
    for element in kleene:
        state = state.accept(element)
    held = SimpleNamespace(bindings={"a": bound, "k": kleene}, agg_states={"k": state})
    return held, Event("A", 9.0, **b)


def outcome(fn):
    """What ``fn()`` returns, or the type of what it raises."""
    try:
        return fn()
    except Exception as exc:  # compared by the caller, never swallowed
        return type(exc)


def identical(x, y) -> bool:
    """Equal in type and value; NaN equals NaN, -0.0 differs from 0.0."""
    if type(x) is not type(y):
        return False
    return x.hex() == y.hex() if type(x) is float else x == y


def reference(expr: Expr, held, candidate: Event):
    ctx = EvalContext(held.bindings, CURRENT, candidate)  # no registers
    return outcome(lambda: compile_expr(expr)(ctx))


@settings(max_examples=1000, deadline=None)
@given(
    accepted=ACCEPTED,
    a=payloads(),
    elements=st.lists(payloads(), min_size=1, max_size=4),
    b=payloads(),
)
def test_a_reader_returns_what_the_context_evaluator_computes(accepted, a, elements, b):
    expr, kinds = accepted
    read, how = total_reader(expr, READS, CURRENT, kinds)
    assert read is not None, how
    held, candidate = held_and_candidate(a, elements, b)
    value = outcome(lambda: read(held, candidate))
    if isinstance(value, type) and issubclass(value, LookupError):
        assert how != PROVEN  # only an attribute not declared required falls back
        return
    assert identical(value, reference(expr, held, candidate))


@settings(max_examples=1000, deadline=None)
@given(expr=MIXED)
def test_a_non_total_expression_is_refused_with_the_cut_kind_reason(expr):
    with pytest.raises(semantics._CutBlocked) as refused:
        semantics._cut_kind(expr, READS, CURRENT, [])
    read, why = total_reader(expr, READS, CURRENT)
    assert read is None
    if isinstance(refused.value, semantics._CutShape):
        assert why == f"shape: {refused.value} is not compiled into a reader"
    else:
        assert why == str(refused.value)


def test_a_guard_must_be_a_bool():
    read, why = total_reader(AttrRef(CURRENT, "i"), READS, CURRENT, ("bool",))
    assert read is None and why == "shape: b.i is not a bool"


def test_an_aggregate_of_the_current_variable_is_refused():
    """It reads the elements before the candidate, and none before the
    first: the context evaluator passes that element vacuously."""
    read, _ = total_reader(Aggregate("max", "k", "i"), READS, "k")
    assert read is None


def test_an_undeclared_attribute_is_checked_and_falls_back():
    expr = Binary(BinaryOp.GT, AttrRef(CURRENT, "u"), AttrRef(BOUND, "f"))
    read, how = total_reader(expr, READS, CURRENT, ("bool",))
    assert how == f"{PROVEN} unless b.u is absent or ill-typed"
    held, _ = held_and_candidate({"i": 1, "f": 1.0, "s": "x", "t": True}, [], {})
    assert read(held, Event("A", 9.0, u=2)) is True
    for payload in ({}, {"u": "2"}, {"u": True}):
        with pytest.raises(LookupError):
            read(held, Event("A", 9.0, **payload))


@pytest.mark.parametrize(
    "expr, value",
    [
        (Binary(BinaryOp.GT, AttrRef(CURRENT, "f"), AttrRef(BOUND, "f")), True),
        (Binary(BinaryOp.SUB, AttrRef(BOUND, "i"), AttrRef(CURRENT, "i")), -1),
        (Binary(BinaryOp.EQ, AttrRef(BOUND, "s"), AttrRef(CURRENT, "s")), False),
        (Binary(BinaryOp.LTE, Aggregate("max", "k", "f"), Literal(2.5)), True),
        (Binary(BinaryOp.MUL, Literal(2), Aggregate("count", "k", None)), 4),
        (Binary(BinaryOp.GTE, AttrRef(CURRENT, "u"), Literal(2)), True),
    ],
)
def test_named_shapes(expr, value):
    """The fused ``attr <op> attr`` and ``attr <op> literal`` forms read
    each side from where it lives."""
    held, candidate = held_and_candidate(
        {"i": 1, "f": 1.0, "s": "x", "t": True},
        [{"i": 5, "f": 2.5, "s": "y", "t": False}, {"i": 3, "f": -1.0, "s": "z", "t": True}],
        {"i": 2, "f": 2.0, "s": "y", "t": False, "u": 2},
    )
    read, _ = total_reader(expr, READS, CURRENT)
    assert read is not None
    assert identical(read(held, candidate), value)
    assert identical(reference(expr, held, candidate), value)

"""Unit tests for incremental aggregate state."""

import math
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import (
    AggregateState,
    needed_aggregates,
    tracked_attrs_by_var,
)
from repro.engine.compiler import compile_automaton
from repro.engine.matcher import PatternMatcher
from repro.events.event import Event
from repro.events.schema import AttributeSpec, EventSchema, SchemaRegistry
from repro.runtime.engine import CEPREngine
from repro.events.time import SequenceAssigner
from repro.language.errors import EvaluationError
from repro.language.parser import parse_query
from repro.language.ast_nodes import split_conjuncts
from repro.language.semantics import analyze
from repro.runtime.serialize import match_to_json


#: a quiet NaN whose payload is not the default one
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]


def bits(value):
    """``value`` down to its type and bits (``-0.0`` is not ``0.0``)."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


class TestAggregateState:
    def make_state(self, *values):
        state = AggregateState.for_attrs(["x"])
        for i, value in enumerate(values):
            state = state.accept(Event("B", i, x=value))
        return state

    def test_empty_state_serves_nothing(self):
        state = AggregateState.for_attrs(["x"])
        assert state.lookup("count", None) is None
        assert state.lookup("avg", "x") is None

    def test_count(self):
        assert self.make_state(1, 2, 3).lookup("count", None) == 3
        assert self.make_state(1).lookup("len", None) == 1

    def test_sum_avg(self):
        state = self.make_state(1, 2, 3)
        assert state.lookup("sum", "x") == 6
        assert state.lookup("avg", "x") == 2.0

    def test_float_sum_is_served_only_where_it_is_the_builtins(self):
        """``sum([0.1, 0.2, 0.3])`` is ``0.6`` where ``sum()`` compensates
        (CPython 3.12 on) and ``0.6000000000000001`` where it does not, as
        the running total is: served there, declined here."""
        values = [0.1, 0.2, 0.3]
        state = self.make_state(*values)
        served = state.lookup("sum", "x")
        assert served is None or bits(served) == bits(sum(values))
        assert (served is None) is (sys.version_info >= (3, 12))
        average = state.lookup("avg", "x")
        assert average is None or bits(average) == bits(sum(values) / len(values))

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    @example([PAYLOAD_NAN, -math.nan])
    def test_sum_and_avg_are_the_builtins_bit_for_bit(self, values):
        state = self.make_state(*values)
        for func, reference in (("sum", sum), ("avg", lambda v: sum(v) / len(v))):
            served = state.lookup(func, "x")
            assert served is None or bits(served) == bits(reference(values)), func

    def test_min_max(self):
        state = self.make_state(5.0, 1.0, 3.0)
        assert state.lookup("min", "x") == 1.0
        assert state.lookup("max", "x") == 5.0

    def test_first_last(self):
        state = self.make_state(5.0, 1.0, 3.0)
        assert state.lookup("first", "x") == 5.0
        assert state.lookup("last", "x") == 3.0

    def test_untracked_attr_serves_none(self):
        assert self.make_state(1.0).lookup("sum", "y") is None

    def test_immutability(self):
        base = self.make_state(1.0)
        extended = base.accept(Event("B", 9, x=100.0))
        assert base.lookup("max", "x") == 1.0
        assert extended.lookup("max", "x") == 100.0

    def test_missing_attr_makes_the_attribute_inexact(self):
        """The reference raises on the missing value: nothing is served."""
        state = self.make_state(1.0).accept(Event("B", 1))  # no x
        state = state.accept(Event("B", 2, x=5.0))
        assert state.lookup("count", None) == 3
        assert self.make_state(2**1100, 1).lookup("avg", "x") is None  # int / int
        for func in ("sum", "avg", "min", "max", "first", "last"):
            assert state.lookup(func, "x") is None

    def test_non_numeric_value_makes_the_attribute_inexact(self):
        for value in ("hello", True, None):
            state = self.make_state(value, 5.0)
            for func in ("sum", "avg", "min", "max", "first", "last"):
                assert state.lookup(func, "x") is None

    def test_int_sums_stay_ints_like_the_builtin(self):
        assert self.make_state(1, 2).lookup("sum", "x") == 3
        assert type(self.make_state(1, 2).lookup("sum", "x")) is int


def matcher_outcome(text, events, track, lenient):
    """Lines a matcher emits with tracking on or off, or what it raised."""
    analyzed = analyze(parse_query(text))
    matcher = PatternMatcher(
        compile_automaton(analyzed), track_aggregates=track, lenient_errors=lenient
    )
    assigner = SequenceAssigner()
    out = []
    try:
        for event in events():
            assigner.assign(event)
            out.extend(sorted(match_to_json(m).items()) for m in matcher.process(event))
    except EvaluationError as exc:
        return "raised", str(exc)
    return out, matcher.stats.evaluation_errors


class TestCacheAgreesWithTheReference:
    """``track_aggregates`` is an optimisation: output, error counters and
    the exception itself equal recomputing every aggregate from bindings."""

    @staticmethod
    def events():
        return [Event("A", 0.0), Event("B", 1.0, y=1), Event("B", 2.0, x=5)]

    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize(
        "condition", ["sum(bs.x) > 0", "first(bs.x) > 0", "max(bs.x) > 0", "avg(bs.x) > 0"]
    )
    def test_an_element_without_the_attribute(self, condition, lenient):
        text = (
            f"PATTERN SEQ(A a, B bs+) WHERE {condition} "
            f"WITHIN 10 EVENTS USING SKIP_TILL_NEXT"
        )
        tracked = matcher_outcome(text, self.events, True, lenient)
        reference = matcher_outcome(text, self.events, False, lenient)
        assert tracked == reference
        if lenient:
            assert tracked[0] == [] and tracked[1] > 0
        else:
            assert tracked[0] == "raised"

    @pytest.mark.parametrize("lenient", [False, True])
    def test_a_bool_element(self, lenient):
        def events():
            return [Event("A", 0.0), Event("B", 1.0, x=True), Event("B", 2.0, x=2)]

        text = (
            "PATTERN SEQ(A a, B bs+) WHERE sum(bs.x) > 2 "
            "WITHIN 10 EVENTS USING SKIP_TILL_NEXT"
        )
        tracked = matcher_outcome(text, events, True, lenient)
        assert tracked == matcher_outcome(text, events, False, lenient)
        assert len(tracked[0]) == 1  # True + 2 == 3: the builtin's answer


class TestIntPastAFloatsRange:
    """An int the ``float`` type admits but a float cannot hold, next to
    floats: ``max`` is served, ``sum`` is an evaluation error on every
    path (tracked or not, with or without a registry), which the lenient
    policy counts."""

    VALUES = (1.0, 2**1100, 0.5)
    REGISTRY = SchemaRegistry(
        [EventSchema(t, (AttributeSpec("v", "float"),)) for t in "AB"]
    )

    def events(self, values):
        return [Event("A", 0.0, v=0.0)] + [
            Event("B", float(i), v=v) for i, v in enumerate(values, 1)
        ]

    def run(self, key, registry, lenient, values=VALUES):
        text = (
            "PATTERN SEQ(A a, B bs+) WITHIN 10 EVENTS USING SKIP_TILL_NEXT "
            f"RANK BY {key} DESC LIMIT 2 EMIT ON WINDOW CLOSE"
        )
        engine = CEPREngine(registry=registry, lenient_errors=lenient)
        handle = engine.register_query(text, name="q")
        engine.run(self.events(values))
        return [m.rank_values for e in handle.results() for m in e.ranking], handle

    @pytest.mark.parametrize("values", [VALUES, (1, 2**1100, 3)])
    @pytest.mark.parametrize("registry", [None, REGISTRY])
    def test_max_is_served(self, registry, values):
        """Also when every value is an int (the total stays exact), which
        the pruner's float bound cannot hold."""
        ranked, _ = self.run("max(bs.v)", registry, lenient=False, values=values)
        assert ranked[0] == (2**1100,)

    @pytest.mark.parametrize("registry", [None, REGISTRY])
    def test_sum_is_an_evaluation_error(self, registry):
        with pytest.raises(EvaluationError, match="sum"):
            self.run("sum(bs.v)", registry, lenient=False)
        ranked, handle = self.run("sum(bs.v)", registry, lenient=True)
        assert handle.ranker.scoring_errors > 0
        assert all(values[0] < 2.0 for values in ranked)  # only the sums before 2**1100


class TestNeededAggregates:
    def exprs_of(self, text):
        query = parse_query(text)
        exprs = split_conjuncts(query.where)
        exprs.extend(k.expr for k in query.rank_by)
        return exprs

    def test_collects_all_aggregates(self):
        exprs = self.exprs_of(
            "PATTERN SEQ(A as+) WITHIN 5 EVENTS "
            "WHERE avg(as.x) > 1 AND count(as) > 2 RANK BY max(as.y) DESC"
        )
        assert needed_aggregates(exprs) == {
            ("as", "avg", "x"),
            ("as", "count", None),
            ("as", "max", "y"),
        }

    def test_tracked_attrs_grouping(self):
        needed = {("as", "avg", "x"), ("as", "max", "y"), ("as", "count", None)}
        grouped = tracked_attrs_by_var(needed)
        assert grouped == {"as": frozenset({"x", "y"})}

    def test_no_aggregates(self):
        assert needed_aggregates(self.exprs_of("PATTERN SEQ(A a) WHERE a.x > 1")) == frozenset()

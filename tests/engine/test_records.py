"""Contracts of the matcher's record types.

``Run``, ``AggregateState`` and ``AttrAggregates`` are immutable
``NamedTuple`` records that the hot constructors build positionally with
``tuple.__new__``; ``Match`` and ``EvalContext`` are slotted dataclasses.
These tests pin what that representation must keep: no field can be
assigned, every positional constructor lays its values out in
``_fields`` order (what keyword construction gives), ``for_query`` copies
every slot, the checkpoint codecs round-trip equal records, and no code
that handles bindings can take a run, itself a tuple, for a Kleene
binding.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.engine.aggregates import (
    INEXACT,
    AggregateState,
    AttrAggregates,
    tracked_attrs_by_var,
)
from repro.engine.compiler import compile_automaton
from repro.engine.match import Match
from repro.engine.runs import NO_AGGREGATES, Run, new_run
from repro.engine.snapshot import (
    decode_agg_state,
    decode_run,
    encode_agg_state,
    encode_run,
)
from repro.events.event import Event
from repro.language.errors import EvaluationError
from repro.language.expressions import EvalContext
from repro.language.parser import parse_query
from repro.language.semantics import analyze

#: a singleton stage, a Kleene stage whose guard a negation restarts, and
#: a closing singleton; ``ks`` tracks ``x``.
QUERY = (
    "PATTERN SEQ(A a, K ks+, NOT N n, C c) WITHIN 50 EVENTS "
    "PARTITION BY p RANK BY avg(ks.x) DESC LIMIT 3"
)
KLEENE_FIRST = "PATTERN SEQ(K ks+, C c) WITHIN 50 EVENTS RANK BY max(ks.x) DESC"

RUN_FIELDS = (
    "automaton",
    "stage",
    "bindings",
    "first_seq",
    "last_seq",
    "first_ts",
    "last_ts",
    "partition_key",
    "kleene_open",
    "agg_states",
    "trips",
)


def automaton_for(text):
    return compile_automaton(analyze(parse_query(text)))


def event(event_type, seq, **attrs):
    out = Event(event_type, float(seq) / 2, **attrs)
    out.seq = seq
    return out


def tracked(automaton):
    return tracked_attrs_by_var(automaton.needed_aggregates)


def assert_laid_out(record, **expected):
    """``record`` holds exactly ``expected``, each value at its
    ``_fields`` position (what keyword construction would give)."""
    assert type(record)._fields == tuple(expected)
    assert record._asdict() == expected
    assert record == type(record)(**expected)


@pytest.fixture
def automaton():
    return automaton_for(QUERY)


@pytest.fixture
def kleene_run(automaton):
    """A run with ``a`` bound and two elements in the open ``ks``."""
    a, k1, k2 = event("A", 1, p=7), event("K", 2, x=3, p=7), event("K", 4, x=5, p=7)
    run = new_run(automaton, a, (7,), tracked(automaton))
    run = run.extend_kleene(automaton.stages[1], k1)
    return run.extend_kleene(automaton.stages[1], k2)


class TestImmutable:
    def test_run_fields_are_the_checkpointed_ones_in_order(self):
        assert Run._fields == RUN_FIELDS

    @pytest.mark.parametrize("name", RUN_FIELDS)
    def test_no_run_field_can_be_assigned(self, kleene_run, name):
        with pytest.raises(AttributeError):
            setattr(kleene_run, name, getattr(kleene_run, name))

    @pytest.mark.parametrize("name", AggregateState._fields)
    def test_no_aggregate_state_field_can_be_assigned(self, kleene_run, name):
        state = kleene_run.agg_states["ks"]
        with pytest.raises(AttributeError):
            setattr(state, name, getattr(state, name))

    @pytest.mark.parametrize("name", AttrAggregates._fields)
    def test_no_attr_aggregates_field_can_be_assigned(self, kleene_run, name):
        agg = kleene_run.agg_states["ks"].attrs["x"]
        with pytest.raises(AttributeError):
            setattr(agg, name, getattr(agg, name))

    def test_records_take_no_new_attributes(self, kleene_run):
        for record in (
            kleene_run,
            kleene_run.agg_states["ks"],
            kleene_run.agg_states["ks"].attrs["x"],
            kleene_run.to_match(0),
            kleene_run.context(),
        ):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_a_run_without_tracked_aggregates_shares_one_read_only_mapping(self):
        automaton = automaton_for("PATTERN SEQ(A a, B b)")
        first = new_run(automaton, event("A", 1), (), {})
        second = new_run(automaton, event("A", 2), (), {})
        assert first.agg_states is second.agg_states is NO_AGGREGATES
        with pytest.raises(TypeError):
            NO_AGGREGATES["a"] = AggregateState()


class TestPositionalConstructors:
    def test_new_run_on_a_singleton_stage(self, automaton):
        a = event("A", 3, p=7)
        run = new_run(automaton, a, (7,), tracked(automaton))
        assert_laid_out(
            run,
            automaton=automaton,
            stage=1,
            bindings={"a": a},
            first_seq=3,
            last_seq=3,
            first_ts=1.5,
            last_ts=1.5,
            partition_key=(7,),
            kleene_open=False,
            agg_states={"ks": AggregateState.for_attrs({"x"})},
            trips=frozenset(),
        )

    def test_new_run_on_a_kleene_stage(self):
        automaton = automaton_for(KLEENE_FIRST)
        k = event("K", 2, x=4)
        run = new_run(automaton, k, (), tracked(automaton))
        assert_laid_out(
            run,
            automaton=automaton,
            stage=0,
            bindings={"ks": (k,)},
            first_seq=2,
            last_seq=2,
            first_ts=1.0,
            last_ts=1.0,
            partition_key=(),
            kleene_open=True,
            agg_states={
                "ks": AggregateState(
                    1, {"x": AttrAggregates(4, 4, 4, 4, 4)}, frozenset({"x"})
                )
            },
            trips=frozenset(),
        )

    def test_bind_singleton(self, automaton, kleene_run):
        c = event("C", 9, p=7)
        closed = kleene_run.close_kleene()
        bound = closed.bind_singleton(automaton.stages[2], c)
        assert_laid_out(
            bound,
            automaton=automaton,
            stage=3,
            bindings={**kleene_run.bindings, "c": c},
            first_seq=1,
            last_seq=9,
            first_ts=0.5,
            last_ts=4.5,
            partition_key=(7,),
            kleene_open=False,
            agg_states=kleene_run.agg_states,
            trips=frozenset(),
        )

    def test_extend_kleene_accepts_and_clears_restartable_trips(
        self, automaton, kleene_run
    ):
        tripped = kleene_run.tripped(0)
        assert_laid_out(tripped, **{**kleene_run._asdict(), "trips": frozenset({0})})
        k3 = event("K", 6, x=1, p=7)
        extended = tripped.extend_kleene(automaton.stages[1], k3)
        state = kleene_run.agg_states["ks"]
        assert_laid_out(
            extended,
            automaton=automaton,
            stage=1,
            bindings={**kleene_run.bindings, "ks": (*kleene_run.bindings["ks"], k3)},
            first_seq=1,
            last_seq=6,
            first_ts=0.5,
            last_ts=3.0,
            partition_key=(7,),
            kleene_open=True,
            agg_states={"ks": state.accept(k3)},
            trips=frozenset(),
        )

    def test_close_kleene(self, automaton, kleene_run):
        assert_laid_out(
            kleene_run.close_kleene(),
            **{**kleene_run._asdict(), "stage": 2, "kleene_open": False},
        )

    def test_attr_aggregates_accept(self):
        agg = AttrAggregates().accept(3).accept(1).accept(5)
        assert_laid_out(
            agg, total=9, minimum=1, maximum=5, first=3, last=5, exact=True
        )
        assert agg.accept("text") is INEXACT
        assert_laid_out(
            INEXACT,
            total=0,
            minimum=None,
            maximum=None,
            first=None,
            last=None,
            exact=False,
        )

    def test_aggregate_state_for_attrs_and_accept(self):
        state = AggregateState.for_attrs(["x", "y"])
        assert_laid_out(
            state,
            count=0,
            attrs={"x": AttrAggregates(), "y": AttrAggregates()},
            tracked=frozenset({"x", "y"}),
        )
        state = state.accept(Event("K", 1.0, x=2.5))  # no ``y``: inexact
        assert_laid_out(
            state,
            count=1,
            attrs={"x": AttrAggregates(2.5, 2.5, 2.5, 2.5, 2.5), "y": INEXACT},
            tracked=frozenset({"x", "y"}),
        )
        assert state.lookup("count", None) == 1
        assert state.lookup("avg", "x") == 2.5
        assert state.lookup("avg", "y") is None

    def test_a_count_only_state_counts(self):
        state = AggregateState.for_attrs(()).accept(Event("K", 1.0))
        assert_laid_out(state, count=1, attrs={}, tracked=frozenset())


class TestMatch:
    def test_for_query_copies_every_slot_and_renames_only(self, kleene_run):
        match = kleene_run.close_kleene().to_match(4, "lead")
        match.score = (-4.0,)
        match.rank_values = (4.0,)
        clone = match.for_query("member")
        assert clone is not match
        assert Match.__slots__ == tuple(Match.__dataclass_fields__)
        for name in Match.__slots__:
            if name == "query_name":
                assert (match.query_name, clone.query_name) == ("lead", "member")
            else:
                assert getattr(clone, name) is getattr(match, name), name


class TestCodecs:
    def test_run_round_trips_through_json(self, automaton, kleene_run):
        run = kleene_run.tripped(0)
        doc = json.loads(json.dumps(encode_run(run)))
        assert decode_run(doc, automaton) == run

    def test_completed_run_round_trips(self, automaton, kleene_run):
        run = kleene_run.close_kleene().bind_singleton(
            automaton.stages[2], event("C", 9, p=7)
        )
        assert decode_run(json.loads(json.dumps(encode_run(run))), automaton) == run

    def test_run_without_aggregates_round_trips(self):
        automaton = automaton_for("PATTERN SEQ(A a, B b)")
        run = new_run(automaton, event("A", 1, v=2), (), {})
        decoded = decode_run(json.loads(json.dumps(encode_run(run))), automaton)
        assert decoded == run and dict(decoded.agg_states) == {}

    def test_aggregate_state_round_trips(self):
        state = AggregateState.for_attrs(["x", "y"])
        for payload in ({"x": 3, "y": 1.5}, {"x": 1}, {"x": 7, "y": 2.0}):
            state = state.accept(Event("K", 1.0, **payload))
            doc = json.loads(json.dumps(encode_agg_state(state)))
            assert decode_agg_state(doc) == state
        assert state.attrs["y"] is INEXACT


SCANNED = ("engine", "ranking")


def tuple_checks():
    """Every ``isinstance(<expr>, ...tuple...)`` in the scanned packages,
    as ``(path, checked expression)``."""
    root = Path(repro.__file__).parent
    found = []
    for package in SCANNED:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    continue
                kinds = node.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(n, ast.Name) and n.id == "tuple" for n in names):
                    found.append(
                        (path.relative_to(root).as_posix(), ast.unparse(node.args[0]))
                    )
    return found


class TestRunsAreNotBindings:
    def test_the_only_tuple_check_reads_a_binding_value(self):
        # ``runs.py`` asserts that the open Kleene variable's binding is a
        # tuple of events; the value comes out of ``bindings``, which hold
        # events and event tuples only.  Every other binding test in these
        # packages asks ``isinstance(binding, Event)``, which a run fails.
        assert tuple_checks() == [("engine/runs.py", "current")]

    def test_evaluation_reads_kleene_bindings_not_runs(self, kleene_run):
        ctx = kleene_run.context()
        assert ctx.events_of("ks") == kleene_run.bindings["ks"]
        with pytest.raises(EvaluationError, match="Kleene binding"):
            ctx.event_of("ks")
        match = kleene_run.close_kleene().to_match(0)
        assert match.size == 3
        assert [e.seq for e in match.events()] == [1, 2, 4]

    def test_eval_context_is_slotted(self):
        ctx = EvalContext(bindings={"a": Event("A", 1.0)})
        assert not hasattr(ctx, "__dict__")

"""Unit tests for Run mechanics and the compiled automaton structure."""

import pytest

from repro.engine.compiler import compile_automaton
from repro.engine.runs import new_run
from repro.events.event import Event
from repro.events.schema import Domain
from repro.language.parser import parse_query
from repro.language.semantics import analyze


def automaton_for(text):
    return compile_automaton(analyze(parse_query(text)))


def seq_event(event_type, seq, ts=None, **attrs):
    event = Event(event_type, ts if ts is not None else float(seq), **attrs)
    event.seq = seq
    return event


class TestAutomatonStructure:
    def test_stage_chain(self):
        automaton = automaton_for("PATTERN SEQ(A a, B bs+, C c)")
        assert [s.event_type for s in automaton.stages] == ["A", "B", "C"]
        assert [s.is_kleene for s in automaton.stages] == [False, True, False]
        assert automaton.accepting_index == 3
        assert automaton.kleene_vars == {"bs"}

    def test_var_types(self):
        automaton = automaton_for("PATTERN SEQ(Buy b, Sell s)")
        assert automaton.var_types == {"b": "Buy", "s": "Sell"}

    def test_needed_aggregates_collected(self):
        automaton = automaton_for(
            "PATTERN SEQ(A as+) WITHIN 5 EVENTS "
            "WHERE avg(as.x) > 1 RANK BY count(as) DESC"
        )
        assert ("as", "avg", "x") in automaton.needed_aggregates
        assert ("as", "count", None) in automaton.needed_aggregates

    def test_trailing_negation_flag(self):
        with_trailing = automaton_for("PATTERN SEQ(A a, NOT C c) WITHIN 5 EVENTS")
        assert with_trailing.has_trailing_negation
        internal = automaton_for("PATTERN SEQ(A a, NOT C c, B b)")
        assert not internal.has_trailing_negation

    def test_stage_for_type(self):
        automaton = automaton_for("PATTERN SEQ(A x, B y, A z)")
        assert len(automaton.stage_for_type("A")) == 2
        assert automaton.first_stage().variable.name == "x"

    def test_kleene_never_gets_bind_predicates(self):
        automaton = automaton_for("PATTERN SEQ(A a, B bs+) WHERE bs.x > 1")
        kleene_stage = automaton.stages[1]
        assert not kleene_stage.bind_predicates
        assert len(kleene_stage.incremental_predicates) == 1


class TestRunLifecycle:
    def make_run(self, text="PATTERN SEQ(A a, B bs+, C c) WITHIN 10 EVENTS"):
        automaton = automaton_for(text)
        return automaton, new_run(automaton, seq_event("A", 0, x=1.0), (), {})

    def test_new_singleton_run(self):
        _automaton, run = self.make_run()
        assert run.stage == 1
        assert not run.kleene_open
        assert run.first_seq == run.last_seq == 0

    def test_new_kleene_run_opens(self):
        automaton = automaton_for("PATTERN SEQ(B bs+)")
        run = new_run(automaton, seq_event("B", 3, x=1.0), (), {})
        assert run.stage == 0 and run.kleene_open
        assert len(run.bindings["bs"]) == 1

    def test_extend_kleene_is_persistent(self):
        automaton, run = self.make_run()
        stage = automaton.stages[1]
        first = run.extend_kleene(stage, seq_event("B", 1, x=2.0))
        second = first.extend_kleene(stage, seq_event("B", 2, x=3.0))
        assert len(first.bindings["bs"]) == 1
        assert len(second.bindings["bs"]) == 2
        assert second.last_seq == 2

    def test_close_kleene_advances_stage(self):
        automaton, run = self.make_run()
        opened = run.extend_kleene(automaton.stages[1], seq_event("B", 1))
        closed = opened.close_kleene()
        assert closed.stage == 2 and not closed.kleene_open

    def test_bind_singleton(self):
        automaton, run = self.make_run("PATTERN SEQ(A a, B b)")
        bound = run.bind_singleton(automaton.stages[1], seq_event("B", 4))
        assert bound.is_complete
        assert bound.last_seq == 4

    def test_window_bounds(self):
        _automaton, run = self.make_run()
        assert not run.window_excludes(seq_event("B", 9))  # first_seq 0 + span 10 - 1
        assert run.window_excludes(seq_event("B", 10))

    def test_time_window_bounds(self):
        automaton = automaton_for("PATTERN SEQ(A a, B b) WITHIN 5 SECONDS")
        run = new_run(automaton, seq_event("A", 0, ts=2.0), (), {})
        assert not run.window_excludes(seq_event("B", 99, ts=7.0))  # first_ts 2 + span 5
        assert run.window_excludes(seq_event("B", 1, ts=7.5))

    def test_to_match_snapshot(self):
        automaton, run = self.make_run("PATTERN SEQ(A a, B b)")
        bound = run.bind_singleton(automaton.stages[1], seq_event("B", 4, ts=4.5))
        match = bound.to_match(7, "myquery")
        assert match.detection_index == 7
        assert match.query_name == "myquery"
        assert match.first_ts == 0.0 and match.last_ts == 4.5

    def test_trips_cleared_by_extension(self):
        automaton = automaton_for(
            "PATTERN SEQ(A a, B bs+, NOT C c, D d)"
        )
        run = new_run(automaton, seq_event("A", 0), (), {})
        opened = run.extend_kleene(automaton.stages[1], seq_event("B", 1))
        tripped = opened.tripped(0)
        assert tripped.blocked_by_trip(2)
        cleared = tripped.extend_kleene(automaton.stages[1], seq_event("B", 3))
        assert not cleared.blocked_by_trip(2)

    def test_context_serves_aggregates(self):
        automaton = automaton_for(
            "PATTERN SEQ(B bs+) WITHIN 5 EVENTS WHERE avg(bs.x) > 0"
        )
        tracked = {"bs": frozenset({"x"})}
        run = new_run(automaton, seq_event("B", 0, x=4.0), (), tracked)
        run = run.extend_kleene(automaton.stages[0], seq_event("B", 1, x=6.0))
        ctx = run.context()
        assert ctx.agg_lookup("bs", "avg", "x") == 5.0


class TestPartialView:
    def test_open_and_bound_variables(self):
        automaton = automaton_for(
            "PATTERN SEQ(A a, B bs+, C c) WITHIN 10 EVENTS"
        )
        run = new_run(automaton, seq_event("A", 0), (), {})
        run = run.extend_kleene(automaton.stages[1], seq_event("B", 1))
        view = run.partial_view(lambda _t, _a: Domain(0, 1), latest_timestamp=1.0)
        assert view.open_vars == {"bs", "c"}
        assert view.max_kleene_count == 10
        assert view.max_duration is None
        assert view.latest_timestamp == 1.0

    def test_closed_kleene_not_open(self):
        automaton = automaton_for("PATTERN SEQ(A a, B bs+, C c) WITHIN 10 EVENTS")
        run = new_run(automaton, seq_event("A", 0), (), {})
        run = run.extend_kleene(automaton.stages[1], seq_event("B", 1))
        run = run.close_kleene()
        view = run.partial_view(lambda _t, _a: None, latest_timestamp=None)
        assert view.open_vars == {"c"}

    def test_time_window_sets_max_duration(self):
        automaton = automaton_for("PATTERN SEQ(A a, B b) WITHIN 30 SECONDS")
        run = new_run(automaton, seq_event("A", 0, ts=5.0), (), {})
        view = run.partial_view(lambda _t, _a: None, latest_timestamp=5.0)
        assert view.max_duration == 30.0
        assert view.max_kleene_count is None

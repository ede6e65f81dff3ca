"""Heartbeat (advance_time) semantics: quiet streams still make progress."""

import pytest

from repro import CEPREngine, EmissionKind, Event
from repro.observability.tracing import SpanKind


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


class TestPendingConfirmation:
    QUERY = "PATTERN SEQ(A a, B b, NOT C c) WITHIN 10 SECONDS"

    def test_pending_confirmed_by_heartbeat(self):
        engine = CEPREngine()
        handle = engine.register_query(self.QUERY)
        engine.push(E("A", 1.0))
        engine.push(E("B", 2.0))
        assert handle.matches() == []  # pending, stream quiet
        emissions = engine.advance_time(12.0)
        assert len(emissions) == 1
        assert len(handle.matches()) == 1

    def test_heartbeat_before_expiry_keeps_pending(self):
        engine = CEPREngine()
        handle = engine.register_query(self.QUERY)
        engine.push(E("A", 1.0))
        engine.push(E("B", 2.0))
        assert engine.advance_time(5.0) == []
        # the guard still holds: a C can still kill it
        engine.push(E("C", 6.0))
        engine.flush()
        assert handle.matches() == []

    def test_heartbeat_expires_time_window_runs(self):
        engine = CEPREngine()
        handle = engine.register_query("PATTERN SEQ(A a, B b) WITHIN 5 SECONDS")
        engine.push(E("A", 1.0))
        engine.advance_time(20.0)
        assert handle.matcher.stats.runs_expired == 1
        engine.push(E("B", 21.0))
        engine.flush()
        assert handle.matches() == []

    def test_heartbeat_expiry_leaves_one_kill_span_per_run(self):
        # A run that dies on a quiet stream is in the trace like one an
        # event outlives: emission provenance tallies RUN_KILL spans.
        engine = CEPREngine(tracing=True)
        handle = engine.register_query(
            "NAME q PATTERN SEQ(A a, B b) WITHIN 5 SECONDS USING SKIP_TILL_ANY"
        )
        engine.push(E("A", 1.0))
        engine.push(E("A", 2.0))
        engine.advance_time(20.0)
        assert handle.matcher.stats.runs_expired == 2
        kills = engine.tracer.spans(SpanKind.RUN_KILL, query="q")
        assert [(s.seq, s.ts, s.detail["reason"]) for s in kills] == [
            (1, 20.0, "expired"),
            (1, 20.0, "expired"),
        ]
        assert engine.tracer.counts_by_kind("q")["run_kill"] == 2

    def test_count_windows_unaffected(self):
        engine = CEPREngine()
        handle = engine.register_query("PATTERN SEQ(A a, B b) WITHIN 5 EVENTS")
        engine.push(E("A", 1.0))
        engine.advance_time(1000.0)  # count window: no expiry by time
        engine.push(E("B", 1001.0))
        engine.flush()
        assert len(handle.matches()) == 1


class TestEpochClosure:
    def test_time_epoch_closed_by_heartbeat(self):
        engine = CEPREngine()
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 10 SECONDS RANK BY a.x DESC LIMIT 2 "
            "EMIT ON WINDOW CLOSE"
        )
        engine.push(E("A", 1.0, x=5))
        engine.push(E("A", 2.0, x=9))
        assert handle.results() == []
        emissions = engine.advance_time(15.0)  # epoch [0, 10) is over
        assert len(emissions) == 1
        assert emissions[0].kind is EmissionKind.WINDOW_CLOSE
        assert [m.rank_values[0] for m in emissions[0].ranking] == [9, 5]

    def test_heartbeat_within_epoch_emits_nothing(self):
        engine = CEPREngine()
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 10 SECONDS RANK BY a.x DESC "
            "EMIT ON WINDOW CLOSE"
        )
        engine.push(E("A", 1.0, x=5))
        assert engine.advance_time(9.0) == []
        assert handle.results() == []

    def test_count_epochs_not_closed_by_time(self):
        engine = CEPREngine()
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 10 EVENTS RANK BY a.x DESC "
            "EMIT ON WINDOW CLOSE"
        )
        engine.push(E("A", 1.0, x=5))
        assert engine.advance_time(1000.0) == []
        engine.flush()
        assert len(handle.results()) == 1


class TestSlidingScopes:
    def test_eager_revision_on_expiry_by_heartbeat(self):
        engine = CEPREngine()
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 5 SECONDS RANK BY a.x DESC LIMIT 1 "
            "EMIT EAGER"
        )
        engine.push(E("A", 1.0, x=100))
        engine.push(E("A", 2.0, x=1))
        emissions = engine.advance_time(7.0)  # x=100 expires, x=1 promoted
        assert len(emissions) == 1
        assert emissions[0].ranking[0].rank_values == (1,)

    def test_periodic_time_emission_fires_on_heartbeat(self):
        engine = CEPREngine()
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 100 SECONDS RANK BY a.x DESC "
            "EMIT EVERY 10 SECONDS"
        )
        engine.push(E("A", 1.0, x=5))
        emissions = engine.advance_time(12.0)
        assert len(emissions) == 1
        assert emissions[0].kind is EmissionKind.PERIODIC

    def test_heartbeat_after_flush_rejected(self):
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a)")
        engine.flush()
        with pytest.raises(RuntimeError, match="already flushed"):
            engine.advance_time(5.0)

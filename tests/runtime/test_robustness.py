"""Robustness features: lenient evaluation errors and bounded lateness."""

import pytest

from repro import CEPREngine, Event
from repro.events.time import LatenessBuffer
from repro.language.errors import EvaluationError


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


class TestLenientErrors:
    QUERY = "PATTERN SEQ(A a, B b) WHERE b.x > a.x"

    def test_strict_mode_raises_on_missing_attribute(self):
        engine = CEPREngine()
        engine.register_query(self.QUERY)
        engine.push(E("A", 1, x=1))
        with pytest.raises(EvaluationError, match="no attribute"):
            engine.push(E("B", 2))  # x missing

    def test_lenient_mode_counts_and_continues(self):
        engine = CEPREngine(lenient_errors=True)
        handle = engine.register_query(self.QUERY)
        engine.push(E("A", 1, x=1))
        engine.push(E("B", 2))          # dirty: counted, predicate fails
        engine.push(E("B", 3, x=5))     # clean: matches
        engine.flush()
        assert handle.matcher.stats.evaluation_errors == 1
        assert len(handle.matches()) == 1

    def test_lenient_mode_type_mismatch(self):
        engine = CEPREngine(lenient_errors=True)
        handle = engine.register_query(self.QUERY)
        engine.push(E("A", 1, x=1))
        engine.push(E("B", 2, x="not a number"))
        engine.flush()
        assert handle.matcher.stats.evaluation_errors == 1
        assert handle.matches() == []

    def test_lenient_scoring_drops_match(self):
        engine = CEPREngine(lenient_errors=True)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 10 EVENTS RANK BY a.score DESC "
            "EMIT ON WINDOW CLOSE"
        )
        engine.push(E("A", 1))            # no `score` attribute
        engine.push(E("A", 2, score=3.0))
        engine.flush()
        assert handle.ranker.scoring_errors == 1
        [emission] = handle.results()
        assert len(emission.ranking) == 1

    def test_strict_scoring_raises(self):
        engine = CEPREngine()
        engine.register_query(
            "PATTERN SEQ(A a) WITHIN 10 EVENTS RANK BY a.score DESC "
            "EMIT ON WINDOW CLOSE"
        )
        with pytest.raises(EvaluationError):
            engine.push(E("A", 1))
            engine.push(E("A", 2))  # epoch stays open; scoring at insert
            engine.flush()


class TestLatenessBuffer:
    def test_reorders_within_bound(self):
        buffer = LatenessBuffer(2.0)
        released = []
        for ts in (1.0, 3.0, 2.0, 6.0, 5.0, 9.0):
            released.extend(e.timestamp for e in buffer.push(Event("A", ts)))
        released.extend(e.timestamp for e in buffer.flush())
        assert released == [1.0, 2.0, 3.0, 5.0, 6.0, 9.0]

    def test_watermark(self):
        buffer = LatenessBuffer(5.0)
        buffer.push(Event("A", 10.0))
        assert buffer.watermark == 5.0

    def test_contract_violations_dropped(self):
        buffer = LatenessBuffer(1.0)
        buffer.push(Event("A", 1.0))
        buffer.push(Event("A", 10.0))  # releases t=1
        assert buffer.late_drops == 0
        released = buffer.push(Event("A", 0.5))  # older than last released
        assert released == []
        assert buffer.late_drops == 1

    def test_zero_lateness_is_passthrough_for_ordered_streams(self):
        buffer = LatenessBuffer(0.0)
        out = buffer.push(Event("A", 1.0))
        assert [e.timestamp for e in out] == [1.0]

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            LatenessBuffer(-1.0)

    def test_equal_timestamps_keep_arrival_order(self):
        buffer = LatenessBuffer(0.0)
        first = Event("A", 1.0, n=1)
        second = Event("A", 1.0, n=2)
        out = buffer.push(first) + buffer.push(second) + buffer.flush()
        assert [e["n"] for e in out] == [1, 2]


class TestEngineWithLateness:
    def test_out_of_order_pair_still_matches(self):
        # B arrives before A in wall order but after in stream time.
        engine = CEPREngine(max_lateness=5.0)
        handle = engine.register_query("PATTERN SEQ(A a, B b)")
        engine.push(E("B", 2.0))
        engine.push(E("A", 1.0))
        engine.flush()
        assert len(handle.matches()) == 1

    def test_without_buffer_the_same_stream_misses(self):
        engine = CEPREngine()
        handle = engine.register_query("PATTERN SEQ(A a, B b)")
        engine.push(E("B", 2.0))
        engine.push(E("A", 1.0))
        engine.flush()
        assert handle.matches() == []

    def test_emissions_follow_watermark(self):
        engine = CEPREngine(max_lateness=1.0)
        handle = engine.register_query("PATTERN SEQ(A a)")
        assert engine.push(E("A", 1.0)) == []     # buffered
        emissions = engine.push(E("A", 5.0))      # watermark 4.0 releases t=1
        assert len(emissions) == 1
        engine.flush()
        assert len(handle.matches()) == 2

    def test_sequencer_sees_ordered_timestamps(self):
        engine = CEPREngine(max_lateness=10.0, strict_time=True)
        engine.register_query("PATTERN SEQ(A a)")
        engine.push(E("A", 3.0))
        engine.push(E("A", 1.0))
        engine.push(E("A", 2.0))
        engine.flush()  # strict sequencer would raise if disorder leaked

    def test_late_drop_counted_on_engine(self):
        engine = CEPREngine(max_lateness=1.0)
        engine.register_query("PATTERN SEQ(A a)")
        engine.push(E("A", 1.0))
        engine.push(E("A", 10.0))   # releases t=1
        engine.push(E("A", 12.0))   # releases t=10
        engine.push(E("A", 2.0))    # older than last release: must drop
        assert engine.ingress.lateness.late_drops == 1

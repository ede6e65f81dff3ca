"""Tests for per-stage profiling (StageTimer / StageProfile) and its wiring."""

from repro import CEPREngine, Event
from repro.observability.profiling import STAGES, StageProfile, StageTimer

QUERY = """
NAME spread
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 20 EVENTS
RANK BY s.price - b.price DESC
LIMIT 2
EMIT ON WINDOW CLOSE
"""


def trades():
    return [
        Event("Buy", 1.0, symbol="X", price=10.0),
        Event("Sell", 2.0, symbol="X", price=15.0),
    ]


class TestStageTimer:
    def test_add_accumulates(self):
        timer = StageTimer()
        timer.add(0.5)
        timer.add(1.5)
        assert timer.count == 2
        assert timer.total == 2.0
        assert timer.maximum == 1.5
        assert timer.mean == 1.0

    def test_mean_of_empty_timer(self):
        assert StageTimer().mean == 0.0


class TestStageProfile:
    def fill(self, match=1.0, rank=0.5, emit=0.25):
        profile = StageProfile()
        profile.match.add(match)
        profile.rank.add(rank)
        profile.emit.add(emit)
        return profile

    def test_stage_names(self):
        assert STAGES == ("match", "rank", "emit")
        profile = StageProfile()
        assert [name for name, _ in profile.timers()] == list(STAGES)

    def test_total_and_describe(self):
        profile = self.fill()
        assert profile.total_seconds == 1.75
        text = profile.describe()
        assert "match=" in text and "rank=" in text and "emit=" in text
        assert "(57%)" in text  # match share of 1.75s

    def test_snapshot(self):
        snapshot = self.fill().snapshot()
        assert snapshot["match"]["total_s"] == 1.0
        assert snapshot["rank"]["count"] == 1
        assert snapshot["emit"]["mean_us"] == 250_000.0


class TestEngineWiring:
    def run(self, **engine_kwargs):
        engine = CEPREngine(**engine_kwargs)
        handle = engine.register_query(QUERY)
        for event in trades():
            engine.push(event)
        engine.flush()
        return engine, handle

    def test_profile_is_always_on_and_exported(self):
        engine, handle = self.run()
        assert handle.pipeline.profile.match.count == 2  # one sample per event
        assert handle.pipeline.profile.total_seconds > 0
        # the engine's view is rebuilt from the registry: equal values
        (name, profile), = engine.profiles_by_query().items()
        assert name == "spread"
        assert profile.snapshot() == handle.pipeline.profile.snapshot()

    def test_explain_includes_stage_profile(self):
        _, handle = self.run()
        assert "stage profile:" in handle.explain()

    def test_explain_omits_profile_before_any_event(self):
        engine = CEPREngine()
        handle = engine.register_query(QUERY)
        assert "stage profile:" not in handle.explain()

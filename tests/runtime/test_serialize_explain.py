"""Tests for JSON serialisation, the JSONL sink, and query explain."""

import io
import json

from repro import CEPREngine, Event
from repro.runtime.serialize import emission_to_json, emission_to_line, match_to_json
from repro.runtime.sinks import JSONLSink


def run_trades(sink=None):
    engine = CEPREngine()
    handle = engine.register_query(
        """
        NAME trades
        PATTERN SEQ(Buy b, Sell ss+)
        WHERE b.symbol == ss.symbol
        WITHIN 20 EVENTS
        RANK BY count(ss) DESC
        LIMIT 2
        EMIT ON WINDOW CLOSE
        """
    )
    if sink is not None:
        handle.subscribe(sink)
    engine.run(
        [
            Event("Buy", 1.0, symbol="X"),
            Event("Sell", 2.0, symbol="X", price=1.0),
            Event("Sell", 3.0, symbol="X", price=2.0),
        ]
    )
    return handle


class TestSerialize:
    def test_match_to_json_includes_kleene_bindings(self):
        handle = run_trades()
        match = handle.final_ranking()[0]
        record = match_to_json(match)
        assert record["query"] == "trades"
        assert record["rank_values"] == [2]
        assert isinstance(record["bindings"]["ss"], list)
        assert len(record["bindings"]["ss"]) == 2
        assert record["bindings"]["b"]["type"] == "Buy"

    def test_emission_to_json_schema(self):
        handle = run_trades()
        record = emission_to_json(handle.results()[0])
        assert record["kind"] == "window_close"
        assert record["epoch"] == 0
        assert len(record["ranking"]) == 2

    def test_emission_to_line_round_trips_through_json(self):
        handle = run_trades()
        line = emission_to_line(handle.results()[0])
        assert json.loads(line)["kind"] == "window_close"


class TestJSONLSink:
    def test_writes_to_handle(self):
        buffer = io.StringIO()
        sink = JSONLSink(buffer)
        run_trades(sink)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert sink.emissions_written == 1
        assert json.loads(lines[0])["ranking"]

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JSONLSink(path) as sink:
            run_trades(sink)
        record = json.loads(path.read_text().strip())
        assert record["kind"] == "window_close"

    def test_lazy_open_means_no_file_without_emissions(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JSONLSink(path):
            pass
        assert not path.exists()


class TestExplain:
    def make_handle(self, query):
        return CEPREngine().register_query(query)

    def test_mentions_every_plan_component(self):
        handle = self.make_handle(
            """
            PATTERN SEQ(A a, B bs+, NOT C c, D d)
            WHERE a.x > 1 AND bs.x > prev(bs.x) AND c.x > a.x AND duration() < 50
            WITHIN 100 EVENTS
            USING SKIP_TILL_ANY
            PARTITION BY grp
            RANK BY avg(bs.x) DESC, a.x ASC
            LIMIT 4
            EMIT ON WINDOW CLOSE
            """
        )
        text = handle.explain()
        assert "strategy: SKIP_TILL_ANY" in text
        assert "window:   100 events" in text
        assert "partition by: grp" in text
        assert "[0] A a (singleton)" in text
        assert "[1] B bs (kleene+)" in text
        assert "per element: bs.x > prev(bs.x)" in text
        assert "on bind: a.x > 1" in text
        assert "negation: NOT C c" in text
        assert "kills when: c.x > a.x" in text
        # duration() anchors at the last singleton stage (semantics.py)
        assert "on bind: duration() < 50" in text
        assert "rank by: avg(bs.x) DESC, a.x ASC" in text
        assert "limit: top 4" in text
        assert "score-bound pruning: active" in text

    def test_unranked_plan(self):
        handle = self.make_handle("PATTERN SEQ(A a)")
        text = handle.explain()
        assert "n/a (unranked query)" in text
        assert "each match on detection" in text
        assert "none (runs never expire)" in text

    def test_pruning_ineligible_for_sliding_emission(self):
        handle = self.make_handle(
            "PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.x LIMIT 1 EMIT EAGER"
        )
        assert "ineligible" in handle.explain()

    def test_pruning_disabled_by_engine(self):
        engine = CEPREngine(enable_pruning=False)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.x LIMIT 1 "
            "EMIT ON WINDOW CLOSE"
        )
        assert "disabled by engine configuration" in handle.explain()

    def test_time_window_and_periodic_emit(self):
        handle = self.make_handle(
            "PATTERN SEQ(A a) WITHIN 90 SECONDS RANK BY a.x EMIT EVERY 10 SECONDS"
        )
        text = handle.explain()
        assert "window:   90 seconds" in text
        assert "snapshot every 10 seconds" in text
        assert "ranking scope: k-skyband of the live matches" in text

    def test_ranking_scope_per_policy(self):
        scopes = {
            "EMIT ON WINDOW CLOSE": "a bounded top-k per tumbling epoch",
            "EMIT EAGER": "k-skyband",
        }
        for emit, scope in scopes.items():
            handle = self.make_handle(
                f"PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.x LIMIT 1 {emit}"
            )
            assert f"ranking scope: {scope}" in handle.explain()
        handle = self.make_handle("PATTERN SEQ(A a) WITHIN 5 EVENTS EMIT EAGER")
        assert "ranking scope: none (pass-through)" in handle.explain()

    def test_trailing_negation_described(self):
        handle = self.make_handle(
            "PATTERN SEQ(A a, NOT C c) WITHIN 10 EVENTS"
        )
        assert "until window expiry (match pends)" in handle.explain()

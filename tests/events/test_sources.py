"""Unit tests for CSV/JSONL sources and replay."""

import json
import math

import pytest

from repro.events.event import Event
from repro.events.sources import CSVSource, JSONLSource, ReplaySource, write_jsonl
from repro.store.log import EventLog


class TestCSVSource:
    def test_reads_typed_rows(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "type,timestamp,symbol,price,active\n"
            "Buy,1.0,ACME,10.5,true\n"
            "Sell,2.0,ACME,11,false\n"
        )
        events = list(CSVSource(path))
        assert [e.event_type for e in events] == ["Buy", "Sell"]
        assert events[0]["price"] == 10.5
        assert events[1]["price"] == 11  # integral stays int
        assert events[0]["active"] is True
        assert events[1]["active"] is False
        assert events[0]["symbol"] == "ACME"

    def test_fixed_event_type(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text("timestamp,price\n1.0,5\n2.0,6\n")
        events = list(CSVSource(path, event_type="Tick"))
        assert all(e.event_type == "Tick" for e in events)

    def test_custom_columns(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("kind,at,x\nA,1.0,2\n")
        events = list(CSVSource(path, type_column="kind", timestamp_column="at"))
        assert events[0].event_type == "A" and events[0].timestamp == 1.0

    def test_missing_type_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,x\n1.0,2\n")
        with pytest.raises(ValueError, match="missing type column"):
            list(CSVSource(path))

    def test_missing_timestamp_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("type,x\nA,2\n")
        with pytest.raises(ValueError, match="missing timestamp column"):
            list(CSVSource(path))

    def test_stream_wrapper(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("type,timestamp\nA,1.0\n")
        assert len(CSVSource(path).stream().collect()) == 1


class TestJSONLSource:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        original = [Event("A", 1.0, x=1), Event("B", 2.0, name="hi")]
        assert write_jsonl(path, original) == 2
        loaded = list(JSONLSource(path))
        assert loaded == original

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "A", "timestamp": 1.0}\n\n')
        assert len(list(JSONLSource(path))) == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match=":1: invalid JSON"):
            list(JSONLSource(path))

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"timestamp": 1.0}\n')
        with pytest.raises(ValueError, match="missing key"):
            list(JSONLSource(path))


def _refuse(token):
    raise ValueError(f"not JSON: {token}")


def _write_log(path, events):
    with EventLog(path) as log:
        log.append_all(events)


class TestNonFiniteRoundTrip:
    """The ``cepr demo`` files and the event log write one line format,
    which ``JSONLSource`` (``cepr run --events``) reads back exactly."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize(
        "write", [write_jsonl, _write_log], ids=["write_jsonl", "EventLog"]
    )
    def test_written_lines_are_strict_json_and_read_back(self, tmp_path, value, write):
        path = tmp_path / "events.jsonl"
        write(path, [Event("S", 1.0, v=value, w=2)])
        # a parser that refuses the NaN/Infinity tokens strict parsers reject
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=_refuse)
        [event] = list(JSONLSource(path))
        assert event.payload.keys() == {"v", "w"}
        assert event["w"] == 2
        restored = event["v"]
        assert math.isnan(restored) if math.isnan(value) else restored == value


class TestReplaySource:
    def test_sleeps_proportionally_to_gaps(self):
        sleeps: list[float] = []
        events = [Event("A", 0.0), Event("A", 1.0), Event("A", 3.0)]
        replay = ReplaySource(events, speedup=2.0, sleep=sleeps.append)
        assert len(list(replay)) == 3
        assert sleeps == [0.5, 1.0]

    def test_no_sleep_before_first_event(self):
        sleeps: list[float] = []
        list(ReplaySource([Event("A", 100.0)], sleep=sleeps.append))
        assert sleeps == []

    def test_zero_gap_does_not_sleep(self):
        sleeps: list[float] = []
        list(ReplaySource([Event("A", 1.0), Event("A", 1.0)], sleep=sleeps.append))
        assert sleeps == []

    def test_invalid_speedup(self):
        with pytest.raises(ValueError, match="speedup must be positive"):
            ReplaySource([], speedup=0)

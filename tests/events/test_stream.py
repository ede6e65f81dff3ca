"""Unit tests for EventStream combinators and merging."""

from repro.events.event import Event
from repro.events.stream import EventStream, merge_streams


def events(*pairs):
    return [Event(t, ts) for t, ts in pairs]


class TestEventStream:
    def test_iteration(self):
        stream = EventStream(events(("A", 1), ("B", 2)))
        assert [e.event_type for e in stream] == ["A", "B"]

    def test_empty(self):
        assert EventStream.empty().collect() == []

    def test_filter(self):
        stream = EventStream(events(("A", 1), ("B", 2), ("A", 3)))
        kept = stream.filter(lambda e: e.timestamp > 1).collect()
        assert [e.timestamp for e in kept] == [2, 3]

    def test_map(self):
        stream = EventStream([Event("A", 1, x=1)])
        mapped = stream.map(lambda e: e.replace(x=e["x"] * 10)).collect()
        assert mapped[0]["x"] == 10

    def test_of_type(self):
        stream = EventStream(events(("A", 1), ("B", 2), ("C", 3)))
        assert [e.event_type for e in stream.of_type("A", "C")] == ["A", "C"]

    def test_take(self):
        stream = EventStream(events(("A", 1), ("B", 2), ("C", 3)))
        assert len(stream.take(2).collect()) == 2

    def test_take_more_than_available(self):
        assert len(EventStream(events(("A", 1))).take(5).collect()) == 1

    def test_drop(self):
        stream = EventStream(events(("A", 1), ("B", 2), ("C", 3)))
        assert [e.event_type for e in stream.drop(2)] == ["C"]

    def test_drop_everything(self):
        assert EventStream(events(("A", 1))).drop(5).collect() == []

    def test_streams_are_single_use(self):
        stream = EventStream(events(("A", 1)))
        stream.collect()
        assert stream.collect() == []

    def test_chaining(self):
        stream = EventStream(events(("A", 1), ("B", 2), ("A", 3), ("A", 4)))
        result = stream.of_type("A").take(2).collect()
        assert [e.timestamp for e in result] == [1, 3]


class TestMergeStreams:
    def test_merges_by_timestamp(self):
        left = events(("A", 1), ("A", 3), ("A", 5))
        right = events(("B", 2), ("B", 4))
        merged = merge_streams([left, right]).collect()
        assert [e.timestamp for e in merged] == [1, 2, 3, 4, 5]

    def test_ties_broken_by_stream_index(self):
        left = events(("A", 1))
        right = events(("B", 1))
        merged = merge_streams([right, left]).collect()
        assert [e.event_type for e in merged] == ["B", "A"]

    def test_merge_with_empty_stream(self):
        merged = merge_streams([events(("A", 1)), []]).collect()
        assert len(merged) == 1

    def test_merge_three_streams(self):
        merged = merge_streams(
            [events(("A", 1), ("A", 9)), events(("B", 5)), events(("C", 3))]
        ).collect()
        assert [e.event_type for e in merged] == ["A", "C", "B", "A"]

"""Unit tests for duration parsing, sequence assignment and admission."""

import pytest

from repro.engine.snapshot import SnapshotFormatError
from repro.events.event import Event
from repro.events.schema import EventSchema, SchemaError, SchemaRegistry
from repro.events.time import (
    Ingress,
    OutOfOrderError,
    SequenceAssigner,
    merge_admission,
    parse_duration,
)


class TestParseDuration:
    @pytest.mark.parametrize(
        "value,unit,expected",
        [
            (500, "MILLISECONDS", 0.5),
            (1, "ms", 0.001),
            (10, "SECONDS", 10.0),
            (2, "second", 2.0),
            (10, "MINUTES", 600.0),
            (1, "min", 60.0),
            (2, "HOURS", 7200.0),
            (1, "h", 3600.0),
            (1, "DAYS", 86400.0),
            (1.5, "minutes", 90.0),
        ],
    )
    def test_conversions(self, value, unit, expected):
        assert parse_duration(value, unit) == expected

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown duration unit"):
            parse_duration(1, "fortnights")


class TestSequenceAssigner:
    def test_assigns_monotone_sequence(self):
        assigner = SequenceAssigner()
        events = [Event("A", t) for t in (1.0, 2.0, 3.0)]
        for event in events:
            assigner.assign(event)
        assert [e.seq for e in events] == [0, 1, 2]
        assert assigner.next_seq == 3

    def test_custom_start(self):
        assigner = SequenceAssigner(start=100)
        event = assigner.assign(Event("A", 1.0))
        assert event.seq == 100

    def test_numbers_regardless_of_time_order(self):
        """Time order is the ingress's business, not the counter's."""
        assigner = SequenceAssigner()
        events = [assigner.assign(Event("A", t)) for t in (5.0, 3.0)]
        assert [e.seq for e in events] == [0, 1]

    def test_assign_all_is_lazy_and_complete(self):
        assigner = SequenceAssigner()
        stamped = list(assigner.assign_all(Event("A", t) for t in (1.0, 2.0)))
        assert [e.seq for e in stamped] == [0, 1]


def admit_all(ingress, timestamps):
    return [e.timestamp for t in timestamps for e in ingress.admit(Event("A", t))]


class TestIngress:
    def test_tracks_the_last_admitted_timestamp(self):
        ingress = Ingress()
        assert admit_all(ingress, (1.0, 2.0, 3.0)) == [1.0, 2.0, 3.0]
        assert ingress.last_timestamp == 3.0
        assert ingress.events_admitted == 3

    def test_out_of_order_counted_when_lenient(self):
        ingress = Ingress()
        assert admit_all(ingress, (5.0, 3.0)) == [5.0, 3.0]
        assert ingress.out_of_order_count == 1

    def test_out_of_order_raises_when_strict_and_changes_nothing(self):
        ingress = Ingress(strict_time=True)
        ingress.admit(Event("A", 5.0))
        before = ingress.mark()
        message = "^event timestamp 3.0 regresses below 5.0$"
        with pytest.raises(OutOfOrderError, match=message):
            ingress.admit(Event("A", 3.0))
        assert ingress.mark() == before
        assert ingress.out_of_order_count == 0
        assert admit_all(ingress, (6.0,)) == [6.0]

    def test_equal_timestamps_allowed_in_strict_mode(self):
        ingress = Ingress(strict_time=True)
        admit_all(ingress, (5.0, 5.0))
        assert ingress.out_of_order_count == 0

    def test_schema_error_changes_nothing(self):
        registry = SchemaRegistry([EventSchema.build("A", v="float")])
        ingress = Ingress(registry=registry, max_lateness=1.0)
        ingress.admit(Event("A", 1.0, v=1.0))
        before = ingress.mark()
        with pytest.raises(SchemaError):
            ingress.admit(Event("A", 2.0, v="bad"))
        assert ingress.mark() == before

    def test_lateness_buffer_reorders_and_drops(self):
        ingress = Ingress(strict_time=True, max_lateness=1.0)
        assert admit_all(ingress, (1.0, 3.0, 2.5, 5.0, 1.5)) == [1.0, 2.5, 3.0]
        assert ingress.lateness.late_drops == 1
        assert ingress.events_admitted == 5
        assert [e.timestamp for e in ingress.flush()] == [5.0]
        assert ingress.last_timestamp == 5.0
        assert ingress.out_of_order_count == 0

    def test_rewind_undoes_everything_since_the_mark(self):
        ingress = Ingress(max_lateness=2.0)
        admit_all(ingress, (1.0, 2.0))
        mark = ingress.mark()
        snapshot = ingress.snapshot()
        admit_all(ingress, (9.0, 0.5))
        assert ingress.snapshot() != snapshot
        ingress.rewind(mark)
        assert ingress.snapshot() == snapshot
        assert ingress.events_admitted == 2

    def test_snapshot_restores_into_a_fresh_ingress(self):
        ingress = Ingress(max_lateness=2.0)
        admit_all(ingress, (1.0, 4.0, 3.5, 0.5))
        state = merge_admission({"sequencer": {"next_seq": 7}}, ingress.snapshot())
        assert state["sequencer"]["next_seq"] == 7
        fresh = Ingress(max_lateness=2.0)
        fresh.restore(state)
        assert fresh.snapshot() == ingress.snapshot()
        assert admit_all(fresh, (9.0,)) == admit_all(ingress, (9.0,))

    def test_restore_rejects_a_lateness_mismatch(self):
        state = merge_admission({"sequencer": {}}, Ingress().snapshot())
        with pytest.raises(SnapshotFormatError, match="max_lateness must match"):
            Ingress(max_lateness=1.0).restore(state)
